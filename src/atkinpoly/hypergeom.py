"""Hypergeometric machinery, exact and numeric.

The exact half is ``pfq``: a terminating pFq at a rational argument,
summed backward over one common denominator in integers.  It feeds every
explicit coefficient formula in the package.  The numeric half provides
the Gauss function on the real interval, the two solutions U_n and Y_n
of the associated recurrence, the C/D combination, and the two large-n
asymptotic right-hand sides.

A note on large n: series like 2F1(b - n, n + a; d; x) are numerically
hopeless when summed directly for n beyond roughly 25, because the terms
grow to exp(2 n sqrt(x)) before collapsing to an O(1) answer.  Every
such sequence here is therefore generated by the three-term recurrence
it satisfies, seeded with two small-n values; that route keeps the
relative error near machine level even at n = 200.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, NonConvergent

_SERIES_CAP = 10**6
# relative truncation tolerance of every Gauss series summed here
_SERIES_TOLERANCE = 1e-12
_PI = math.pi


class RealValue(namedtuple("RealValue", "value abs_error_estimate")):
    """A double plus an upper bound on its truncation error."""

    __slots__ = ()


def checked_denominator(value: float, where: str) -> float:
    """A closed form's denominator, refused if a power in it underflowed."""
    if value == 0.0:
        raise DomainError("the denominator underflows to 0.0 at %s" % where)
    return value


def pfq(numerator_params, denominator_params, argument) -> Fraction:
    """Exact sum of a terminating pFq at a rational argument.

    The sum is nested as 1 + r_0 (1 + r_1 (1 + ...)), r_k the ratio of
    term k+1 to term k, and evaluated from the last term down.  With every
    parameter over one common denominator each r_k is a ratio of
    integers, so the loop keeps one integer numerator and one integer
    denominator and a single Fraction is made, and reduced, at the end.
    """
    nums = [Fraction(v) for v in numerator_params]
    dens = [Fraction(v) for v in denominator_params]
    z = Fraction(argument)
    stops = [-a for a in nums if a.denominator == 1 and a <= 0]
    if not stops:
        raise DomainError("series does not terminate: no nonpositive-integer numerator parameter")
    terms = int(min(stops))  # summation index runs 0..terms
    for b in dens:
        if b.denominator == 1 and b <= 0 and -b < terms:
            raise DomainError(
                "denominator parameter %s vanishes before the series terminates" % b
            )
    # with D the common denominator of the parameters, A = aD and B = bD,
    # the ratio of term k+1 to term k is
    #   r_k = z D^(q-p) prod(A + kD) / ((k + 1) prod(B + kD))
    scale = math.lcm(*(v.denominator for v in nums), *(v.denominator for v in dens))
    big_a = [v.numerator * (scale // v.denominator) for v in nums]
    big_b = [v.numerator * (scale // v.denominator) for v in dens]
    excess = len(dens) - len(nums)
    znum = z.numerator * scale ** max(excess, 0)
    zden = z.denominator * scale ** max(-excess, 0)
    num = den = 1
    for k in range(terms - 1, -1, -1):
        kd = k * scale
        up = znum
        for a in big_a:
            up *= a + kd
        down = zden * (k + 1)
        for b in big_b:
            down *= b + kd
        den *= down
        num = num * up + den
    return Fraction(num, den)


def _rgamma(x: float) -> float:
    # reciprocal gamma, zero at the poles; negative non-integer x is fine
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _series_f21(a: float, b: float, c: float, x: float, tol: float):
    """Direct Gauss series; caller guarantees |x| < 1 and c not in Z<=0.

    Returns (value, tail_bound, sum of |terms|).  The tail bound is the
    current term times the geometric bound q/(1-q) once the term ratio is
    provably below 1, which it can only be past index neg + 1.  Absolute
    values are taken by comparison, not by builtin calls, in this hot loop.
    """
    total = 1.0
    term = 1.0
    abssum = 1.0
    big = max(abs(a), abs(b))
    neg = abs(min(c, 0.0))
    ax = abs(x)
    kmin = neg + 1.0
    k = 0
    while k < _SERIES_CAP:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        aterm = term if term >= 0.0 else -term
        abssum += aterm
        k += 1
        if term == 0.0:
            return total, 2.3e-16 * abssum, abssum
        if k > kmin:
            kb = k + big
            q = ax * kb * kb / ((k + 1.0) * (k - neg))
            if 0.0 < q < 1.0:
                tail = aterm * q / (1.0 - q)
                scale = total if total >= 0.0 else -total
                if tail <= tol * (scale if scale > 1.0 else 1.0):
                    return total, tail + 2.3e-16 * abssum, abssum
    raise NonConvergent("2F1 series cap reached at x=%r" % x)


def _check_c(c: float):
    if c <= 0 and c == math.floor(c):
        raise DomainError("denominator parameter %r is a nonpositive integer" % c)


# unit roundoff of a double, and a bound on the relative error of
# math.gamma in units of it (measured at most 8.2 over (-30, 171) against
# mpmath at 40 digits)
_U = 2.0**-53
_GAMMA_ULPS = 16.0


def _digamma(x: float) -> float:
    """psi(x) to a few digits, enough to bound how a gamma factor moves
    when its argument does; x must not be a nonpositive integer."""
    if x <= 0.0:
        return _digamma(1.0 - x) - _PI / math.tan(_PI * x)
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    f = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - f * (1.0 / 12.0 - f * (1.0 / 120.0 - f / 252.0))


def _product_rel_error(factors) -> float:
    """Relative error bound of a product of gamma or reciprocal-gamma
    factors, given as (argument, rounding error of the argument) pairs:
    each factor's own rounding, its argument's rounding times |psi| there,
    and one rounding per multiplication or reciprocal."""
    rel = 0.0
    for x, dx in factors:
        rel += (_GAMMA_ULPS + 2.0) * _U + abs(_digamma(x)) * dx
    return rel


def _denominator_shift(c: float, dc: float) -> float:
    """Bound on the relative change of each term of a Gauss series when
    its denominator parameter c moves by dc: dc times the sum of 1/|c + j|
    over j below the series cap K, which is at most 1/d for the j nearest
    the pole, at distance d, plus 4 + 2 log(2K) for the others."""
    d = c if c > 0.0 else abs(c - round(c))
    # d = 0: the series ended on a zero numerator before reaching the pole
    return dc * ((1.0 / d if d > 0.0 else 0.0) + 4.0 + 2.0 * math.log(2.0 * _SERIES_CAP))


@functools.lru_cache(maxsize=256)
def _connection_gammas(a: float, b: float, c: float):
    """The two gamma products of the connection formula in 1 - x, each
    with a bound on its relative rounding error, and the rounding error
    of c - a - b.

    They depend on the parameters only; the weight and c_and_d reuse a
    handful of triples at every node.  Multiplied in the same order as
    when they were formed inline, so the s**(c-a-b) factor applied by the
    caller rounds the same way.
    """
    cab = c - a - b
    gc = math.gamma(c)
    g1 = gc * math.gamma(cab) * _rgamma(c - a) * _rgamma(c - b)
    g2 = gc * math.gamma(-cab) * _rgamma(a) * _rgamma(b)
    dcab = _U * (abs(c - a) + abs(cab))
    # a product that vanished has nothing to bound, and psi has a pole
    # where a reciprocal-gamma factor vanishes
    rel1 = rel2 = 0.0
    if g1 != 0.0:
        rel1 = _product_rel_error(
            ((c, 0.0), (cab, dcab), (c - a, _U * abs(c - a)), (c - b, _U * abs(c - b)))
        )
    if g2 != 0.0:
        rel2 = _product_rel_error(((c, 0.0), (-cab, dcab), (a, 0.0), (b, 0.0)))
    return g1, g2, rel1, rel2, dcab


def f21_near_one(a: float, b: float, c: float, one_minus_x: float) -> RealValue:
    """2F1 at x = 1 - one_minus_x with the distance to 1 supplied exactly.

    Uses the standard two-series connection in 1-x; requires c-a-b not an
    integer.  Exposed separately because the weight function must evaluate
    arbitrarily close to 1, where forming 1-x from x alone loses digits.
    """
    _check_c(c)
    s = one_minus_x
    if s < 0:
        raise NonConvergent("argument beyond 1")
    if s == 0:
        return _gauss_at_one(a, b, c)
    if s > 0.5:
        return f21_real(a, b, c, 1.0 - s)
    cab = c - a - b
    if cab == math.floor(cab):
        raise NonConvergent("c-a-b integer: the two-series connection degenerates")
    g1, g2, rel1, rel2, dcab = _connection_gammas(a, b, c)
    g2 = g2 * s**cab
    v = 0.0
    err = 0.0
    # each series also moves with the rounding of its denominator
    # parameter, a + b - c + 1 and c - a - b + 1
    if g1 != 0.0:
        c1 = a + b - c + 1.0
        s1, e1, w1 = _series_f21(a, b, c1, s, _SERIES_TOLERANCE)
        v += g1 * s1
        e1 += _denominator_shift(c1, _U * (abs(a + b) + abs(a + b - c) + abs(c1))) * w1
        err += abs(g1) * e1 + (5e-16 + rel1) * abs(g1 * s1)
    if g2 != 0.0:
        c2 = cab + 1.0
        s2, e2, w2 = _series_f21(c - a, c - b, c2, s, _SERIES_TOLERANCE)
        v += g2 * s2
        e2 += _denominator_shift(c2, dcab + _U * abs(c2)) * w2
        # s**cab: the power's own rounding, its product with the gamma
        # factors, and the rounding of c - a - b amplified by |log s|
        rel2 += 2.0 * _U - math.log(s) * dcab
        err += abs(g2) * e2 + (5e-16 + rel2) * abs(g2 * s2)
    return RealValue(v, err)


def _gauss_at_one(a: float, b: float, c: float) -> RealValue:
    cab = c - a - b
    if cab <= 0:
        raise NonConvergent("2F1 at 1 requires c-a-b > 0")
    v = math.gamma(c) * math.gamma(cab) * _rgamma(c - a) * _rgamma(c - b)
    return RealValue(v, 8e-16 * abs(v))


def f21_real(a: float, b: float, c: float, x: float) -> RealValue:
    """Gauss 2F1 for real argument x < 1 (x = 1 allowed when c-a-b > 0)."""
    _check_c(c)
    if x == 0.0:
        return RealValue(1.0, 0.0)
    if x == 1.0:
        return _gauss_at_one(a, b, c)
    if x > 1.0:
        raise NonConvergent("argument beyond 1")
    if x <= -1.0:
        raise NonConvergent("argument at or below -1 is not supported")
    if x < 0.5:
        v, e, _ = _series_f21(a, b, c, x, _SERIES_TOLERANCE)
        return RealValue(v, e)
    return f21_near_one(a, b, c, 1.0 - x)


# ---------------------------------------------------------------------------
# recurrence-based sequences


def _monic_coeffs(alpha: float, beta: float, c: float, n: int):
    """Shift and product of the monic three-term recurrence at index n >= 1."""
    s = 2.0 * n + 2.0 * c + alpha + beta
    for d in (s - 1.0, s, s + 1.0, s + 2.0):
        if abs(d) < 1e-12:
            raise DomainError("recurrence coefficient degenerates at index %d" % n)
    shift = (s * (s + 2.0) - (alpha * alpha - beta * beta)) / (2.0 * s * (s + 2.0))
    prod = (
        (n + c)
        * (n + c + alpha)
        * (n + c + beta)
        * (n + c + alpha + beta)
        / ((s - 1.0) * s * s * (s + 1.0))
    )
    return shift, prod


def _monic_seq(alpha: float, beta: float, c: float, x: float, nmax: int, t0, t1):
    """Propagate a solution of the monic recurrence from two seed values.

    Seeds are (value, error) pairs; the error channel runs the same
    recurrence on magnitudes so the output bounds stay honest.
    """
    vals = [t0[0], t1[0]]
    errs = [t0[1], t1[1]]
    for n in range(1, nmax):
        shift, prod = _monic_coeffs(alpha, beta, c, n)
        v = (x - shift) * vals[n] - prod * vals[n - 1]
        vals.append(v)
        errs.append(
            abs(x - shift) * errs[n] + abs(prod) * errs[n - 1] + 2.3e-16 * abs(v)
        )
    return vals[: nmax + 1], errs[: nmax + 1]


def _scale_factors(nmax: int, ratio) -> list:
    """g_0 = 1 and g_{n+1} = g_n ratio(n) for n < nmax.

    The factors grow like 4^n and overflow a double near n = 514; the
    first that does, or that meets a pole of the ratio, is refused
    before any value is built.
    """
    gs = [1.0]
    for n in range(nmax):
        try:
            g = gs[n] * ratio(n)
        except ZeroDivisionError:
            raise DomainError("scale factor has a pole at index %d" % (n + 1)) from None
        if not math.isfinite(g):
            raise DomainError(
                "N = %d is past %d, the last horizon whose terms fit a double" % (nmax, n)
            )
        gs.append(g)
    return gs


def _seed_scale(alpha: float, beta: float, c: float) -> float:
    """The factor that puts the degree-one seed on the monic scale."""
    s = alpha + beta + 2 * c
    if (s + 1.0) * (s + 2.0) == 0.0:
        raise DomainError("the scale of the degree-one seed has a pole")
    return (c + 1.0) * (alpha + beta + c + 1.0) / ((s + 1.0) * (s + 2.0))


def f21_profile_seq(a: float, b: float, d: float, x: float, nmax: int):
    """Values of 2F1(b - n, n + a; d; x) for n = 0..nmax, as RealValues."""
    al = a + b - d
    be = d - 1.0
    cc = -b
    if abs(cc + 1.0) < 1e-12 or abs(be + cc + 1.0) < 1e-12:
        raise DomainError("profile parameters degenerate the seed scaling")
    gs = _scale_factors(nmax, lambda n: (
        -(al + be + 2 * cc + 1.0 + 2 * n)
        * (al + be + 2 * cc + 2.0 + 2 * n)
        / ((be + cc + 1.0 + n) * (al + be + cc + 1.0 + n))
    ))
    f0 = f21_real(b, a, d, x)
    f1 = f21_real(b - 1.0, a + 1.0, d, x)
    u1 = -(be + cc + 1.0) / (cc + 1.0)
    s1 = _seed_scale(al, be, cc)
    if nmax == 0:
        return [f0]
    vals, errs = _monic_seq(
        al, be, cc, x, nmax, (f0.value, f0.abs_error_estimate),
        (s1 * u1 * f1.value, abs(s1 * u1) * f1.abs_error_estimate),
    )
    return [RealValue(g * v, abs(g) * e) for g, v, e in zip(gs, vals, errs)]


def _uy_monic_seqs(af: float, bf: float, cf: float, x: float, nmax: int):
    """Tilde-normalized U and Y value sequences (with error channels).

    Both carry the same prefactor, the one that makes U monic.  Under
    that shared scaling each is a solution of the same monic recurrence
    (for Y this is the monic scaling of the U family at parameters
    (alpha, -beta, beta+c), whose shift and product coincide); only the
    seeds differ.
    """
    u0 = f21_real(-cf, af + bf + cf + 1.0, 1.0 + bf, x)
    u1s = f21_real(-1.0 - cf, af + bf + cf + 2.0, 1.0 + bf, x)
    u1 = -(bf + cf + 1.0) / (cf + 1.0) * u1s.value
    y0 = f21_real(-bf - cf, af + cf + 1.0, 1.0 - bf, x)
    y1s = f21_real(-1.0 - bf - cf, af + cf + 2.0, 1.0 - bf, x)
    y1 = -(af + cf + 1.0) / (af + bf + cf + 1.0) * y1s.value
    su = _seed_scale(af, bf, cf)
    if nmax == 0:
        return ([(u0.value, u0.abs_error_estimate)], [(y0.value, y0.abs_error_estimate)])
    uv, ue = _monic_seq(
        af, bf, cf, x, nmax, (u0.value, u0.abs_error_estimate),
        (su * u1, abs(su * (bf + cf + 1.0) / (cf + 1.0)) * u1s.abs_error_estimate),
    )
    yv, ye = _monic_seq(
        af, bf, cf, x, nmax, (y0.value, y0.abs_error_estimate),
        (su * y1, abs(su * (af + cf + 1.0) / (af + bf + cf + 1.0)) * y1s.abs_error_estimate),
    )
    return (list(zip(uv, ue)), list(zip(yv, ye)))


def u_and_y_seq(params, x: float, nmax: int):
    """U_n(x) and Y_n(x) for n = 0..nmax at the given (alpha, beta, c)."""
    af, bf, cf = float(params.alpha), float(params.beta), float(params.c)
    gs = _scale_factors(nmax, lambda n: (
        (af + bf + 2 * cf + 1.0 + 2 * n) * (af + bf + 2 * cf + 2.0 + 2 * n)
        / ((cf + 1.0 + n) * (af + bf + cf + 1.0 + n))
    ))
    tu, ty = _uy_monic_seqs(af, bf, cf, x, nmax)
    us = [RealValue(g * v, abs(g) * e) for g, (v, e) in zip(gs, tu)]
    ys = [RealValue(g * v, abs(g) * e) for g, (v, e) in zip(gs, ty)]
    return us, ys


def u_and_y(n: int, params, x: float):
    """The solution pair (U_n(x), Y_n(x))."""
    if not 0.0 < x < 1.0:
        raise DomainError("u_and_y requires x in (0, 1)")
    us, ys = u_and_y_seq(params, x, n)
    return us[n], ys[n]


def c_and_d(x: float):
    """The coefficient pair (C(x), D(x)) of the two-solution combination."""
    f1 = f21_real(-5.0 / 12.0, -5.0 / 12.0, -1.0 / 3.0, x)
    f2 = f21_real(-5.0 / 12.0, -5.0 / 12.0, 2.0 / 3.0, x)
    cval = -(24.0 * f1.value + f2.value) / 60.0
    cerr = (24.0 * f1.abs_error_estimate + f2.abs_error_estimate) / 60.0
    f3 = f21_real(-1.0 / 12.0, -1.0 / 12.0, 1.0 / 3.0, x)
    f4 = f21_real(11.0 / 12.0, -1.0 / 12.0, 4.0 / 3.0, x)
    dval = (91.0 / 384.0) * x * (4.0 * f3.value - 5.0 * f4.value)
    derr = abs(x) * (91.0 / 384.0) * (4.0 * f3.abs_error_estimate + 5.0 * f4.abs_error_estimate)
    return RealValue(cval, cerr + 5e-16 * abs(cval)), RealValue(dval, derr + 5e-16 * abs(dval))


def watson_rhs(a: float, b: float, d: float, theta: float, n: int) -> float:
    """Leading asymptotic term for 2F1(b - n, n + a; d; sin^2 theta)."""
    if not 0.0 < theta < math.pi:
        raise DomainError("theta must lie in (0, pi)")
    if n < 1:
        raise DomainError("n must be positive")
    ct = math.cos(theta)
    st = math.sin(theta)
    expo = d - a - b - 0.5
    if ct < 0.0 and expo != math.floor(expo):
        raise DomainError("negative cosine with fractional exponent")
    pref = math.gamma(d) * n ** (0.5 - d) / math.sqrt(math.pi)
    pref *= ct**expo / st ** (d - 0.5)
    return pref * math.cos(2.0 * n * theta + (a - b) * theta - 0.5 * math.pi * (d - 0.5))


def atkin_asymptotic(n: int, theta: float) -> float:
    """Large-n approximation to the normalized degree-(n+1) polynomial
    at sin^2 theta, theta in (0, pi/2).

    The phase 2(n+1)theta, the sin^(4/3) factor on the first term and the
    gamma argument 25/12 in the second are pinned by matching recurrence
    values at n in the hundreds; the nearby variants (phase 2(n-1)theta,
    sin^(2/3), gamma at 13/12) leave an O(1) discrepancy that never decays.
    """
    if not 0.0 < theta < 0.5 * math.pi:
        raise DomainError("theta must lie in (0, pi/2)")
    if n < 1:
        raise DomainError("n must be positive")
    if 2 * n + 1 >= sys.float_info.max_exp:
        raise DomainError(
            "n = %d overflows the 2^(2n+1) scale of a double; n must stay below %d"
            % (n, sys.float_info.max_exp // 2)
        )
    st = math.sin(theta)
    ct = math.cos(theta)
    cx, dx = c_and_d(st * st)
    phase = 2.0 * (n + 1) * theta
    term_c = (
        cx.value
        * math.gamma(1.0 / 3.0)
        * st ** (4.0 / 3.0)
        / (math.gamma(11.0 / 12.0) * math.gamma(17.0 / 12.0))
        * math.cos(phase + math.pi / 12.0)
    )
    term_d = (
        dx.value
        * math.gamma(5.0 / 3.0)
        / (math.gamma(25.0 / 12.0) * math.gamma(19.0 / 12.0))
        * math.cos(phase - 7.0 * math.pi / 12.0)
    )
    sign = -1.0 if n % 2 else 1.0
    den = checked_denominator(2.0 ** (2 * n + 1) * ct * st ** (7.0 / 6.0), "theta=%r" % theta)
    return sign / den * (term_c + term_d)


_CANONICAL = (0.5, -2.0 / 3.0, 7.0 / 12.0)


def buv_combination(n: int, x: float) -> float:
    """C(x) Utilde_n(x) + D(x) Ytilde_n(x) at the canonical parameters.

    Both tilde normalizations carry the same prefactor, the one that makes
    U monic; the result reproduces the normalized degree-(n+1) Atkin
    polynomial at x.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("buv_combination requires x in (0, 1)")
    af, bf, cf = _CANONICAL
    tu, ty = _uy_monic_seqs(af, bf, cf, x, n)
    cx, dx = c_and_d(x)
    return cx.value * tu[n][0] + dx.value * ty[n][0]
