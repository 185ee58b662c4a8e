"""Floating point on the exact core: the Gauss function on the real
interval, the solutions U_n and Y_n of the associated recurrence, the C/D
combination, and the float values and large-n asymptotics of the
normalized Atkin polynomials.  The exact terminating pFq is ``exact.pfq``.

A note on large n: series like 2F1(b - n, n + a; d; x) are numerically
hopeless when summed directly for n beyond roughly 25, because the terms
grow to exp(2 n sqrt(x)) before collapsing to an O(1) answer.  Every
such sequence is therefore run forward from small-n seeds on its
three-term recurrence, by one float stepper, ``_monic_steps`` (the
profile, U and Y together, and the Atkin values on ``atkin.atkin_rates``);
that route keeps the relative error near machine level even at n = 200.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple

from .assoc_jacobi import S_SET
from .atkin import atkin_normalized, atkin_rates
from .errors import DomainError, NonConvergent

_SERIES_CAP = 10**6
# relative truncation tolerance of every Gauss series summed here
_SERIES_TOLERANCE = 1e-12
_PI = math.pi


class RealValue(namedtuple("RealValue", "value abs_error_estimate")):
    """A double plus an estimate of its absolute error.  Those of
    ``f21_near_one`` and of ``f21_real`` at x >= 0.5 are bounds, checked
    against mpmath; the recurrence-built sequences (``f21_profile_seq``,
    ``u_and_y_seq``) carry the float stepper's channel, which cancellation
    can exceed (0.8% of values, by up to 120x)."""

    __slots__ = ()


def checked_denominator(value: float, where: str) -> float:
    """A closed form's denominator, refused if a power in it underflowed."""
    if value == 0.0:
        raise DomainError("the denominator underflows to 0.0 at %s" % where)
    return value


def double_params(params) -> tuple:
    """(alpha, beta, c) as doubles; a parameter past their range is a DomainError."""
    try:
        return tuple(float(p) for p in params)
    except OverflowError:
        raise DomainError("alpha, beta and c must lie in the range of a double") from None


def _rgamma(x: float) -> float:
    # reciprocal gamma, zero at the poles; negative non-integer x is fine
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _gamma_ratio(p: float, q: float, r: float, s: float) -> float:
    """Gamma(p) Gamma(q) / (Gamma(r) Gamma(s)), multiplied left to right.
    A factor or product past the range of a double (Gamma overflowing, the
    reciprocal of a Gamma that underflowed, inf or nan) is refused."""
    try:
        v = math.gamma(p) * math.gamma(q) * _rgamma(r) * _rgamma(s)
        if math.isfinite(v):
            return v
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(
        "Gamma(%r) Gamma(%r) / (Gamma(%r) Gamma(%r)) is past the range of a double" % (p, q, r, s)
    )


def _series_f21(a: float, b: float, c: float, x: float):
    """Direct Gauss series; caller guarantees |x| < 1.  At a nonpositive
    integer c the series raises ZeroDivisionError if it reaches index -c.

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
                if tail <= _SERIES_TOLERANCE * (scale if scale > 1.0 else 1.0):
                    return total, tail + 2.3e-16 * abssum, abssum
    raise NonConvergent("2F1 series cap reached at x=%r" % x)


def _check_args(a: float, b: float, c: float, x: float):
    if a != a or b != b or c != c or x != x:
        raise DomainError("2F1 parameters and argument must not be NaN")
    if math.isinf(a) or math.isinf(b) or math.isinf(c):
        raise DomainError("2F1 parameters must be finite, got (%r, %r, %r)" % (a, b, c))
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
    g1 = _gamma_ratio(c, cab, c - a, c - b)
    g2 = _gamma_ratio(c, -cab, a, b)
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


def _connection_series(a: float, b: float, c: float, s: float):
    # c, formed apart from c - a - b, may round onto a pole that c - a - b
    # missed; the series can still end (zero numerator, underflow) before -c
    try:
        return _series_f21(a, b, c, s)
    except ZeroDivisionError:
        raise NonConvergent(
            "series denominator parameter %r rounds to a pole of the connection formula" % c
        ) from None


def f21_near_one(a: float, b: float, c: float, one_minus_x: float) -> RealValue:
    """2F1 at x = 1 - one_minus_x with the distance to 1 supplied exactly.

    Uses the standard two-series connection in 1-x; requires c-a-b not an
    integer.  Exposed separately because the weight function must evaluate
    arbitrarily close to 1, where forming 1-x from x alone loses digits.
    """
    _check_args(a, b, c, one_minus_x)
    s = one_minus_x
    if s < 0:
        raise NonConvergent("argument beyond 1")
    if s == 0:
        return _gauss_at_one(a, b, c)
    if s > 0.5:
        return f21_real(a, b, c, 1.0 - s)
    cab = c - a - b
    if not math.isfinite(cab):
        raise DomainError("c - a - b = %r is past the range of a double" % cab)
    if cab == math.floor(cab):
        raise NonConvergent("c-a-b integer: the two-series connection degenerates")
    g1, g2, rel1, rel2, dcab = _connection_gammas(a, b, c)
    if g2 != 0.0:  # a product that vanished needs no power, which may overflow
        try:
            g2 = g2 * s**cab
        except OverflowError:
            raise DomainError("the power (1 - x)**(c - a - b) overflows at 1 - x=%r" % s) from None
    v = 0.0
    err = 0.0
    # each series also moves with the rounding of its denominator
    # parameter, a + b - c + 1 and c - a - b + 1
    if g1 != 0.0:
        c1 = a + b - c + 1.0
        s1, e1, w1 = _connection_series(a, b, c1, s)
        v += g1 * s1
        e1 += _denominator_shift(c1, _U * (abs(a + b) + abs(a + b - c) + abs(c1))) * w1
        err += abs(g1) * e1 + (5e-16 + rel1) * abs(g1 * s1)
    if g2 != 0.0:
        c2 = cab + 1.0
        s2, e2, w2 = _connection_series(c - a, c - b, c2, s)
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
    v = _gamma_ratio(c, cab, c - a, c - b)
    return RealValue(v, 8e-16 * abs(v))


def f21_real(a: float, b: float, c: float, x: float) -> RealValue:
    """Gauss 2F1 for real argument x < 1 (x = 1 allowed when c-a-b > 0)."""
    _check_args(a, b, c, x)
    if x == 0.0:
        return RealValue(1.0, 0.0)
    if x == 1.0:
        return _gauss_at_one(a, b, c)
    if x > 1.0:
        raise NonConvergent("argument beyond 1")
    if x <= -1.0:
        raise NonConvergent("argument at or below -1 is not supported")
    if x < 0.5:
        v, e, _ = _series_f21(a, b, c, x)
        return RealValue(v, e)
    return f21_near_one(a, b, c, 1.0 - x)


# ---------------------------------------------------------------------------
# recurrence-based sequences


def _monic_steps(coeffs, x: float, nmax: int, seeds):
    """Step solutions of y_{n+1} = (x - shift_n) y_n - prod_n y_{n-1} to n = nmax.

    Each seed is a (values, errors) pair of lists, the first entries of
    one solution; stepping starts at their last index, with coeffs(n) =
    (shift_n, prod_n) evaluated once per index for all of them.  The error
    channel runs the same recurrence on magnitudes so the output bounds
    stay honest.  Returns the seeds extended and cut to nmax + 1 entries.
    """
    for n in range(len(seeds[0][0]) - 1, nmax):
        shift, prod = coeffs(n)
        d = x - shift
        ad, ap = abs(d), abs(prod)
        for vals, errs in seeds:
            v = d * vals[n] - prod * vals[n - 1]
            vals.append(v)
            errs.append(ad * errs[n] + ap * errs[n - 1] + 2.3e-16 * abs(v))
    return [(vals[: nmax + 1], errs[: nmax + 1]) for vals, errs in seeds]


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


def _scale_factors(nmax: int, ratio) -> list:
    """g_0 = 1 and g_{n+1} = g_n ratio(n) for n < nmax: the scale factors
    of the recurrence-built families, and the coefficients of their
    generating series.

    The families' factors grow like 4^n and overflow a double near
    n = 514; the first factor that does, or that meets a pole of the
    ratio, is refused before any value is built.
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
    [(vals, errs)] = _monic_steps(functools.partial(_monic_coeffs, al, be, cc), x, nmax, [
        ([f0.value, s1 * u1 * f1.value], [f0.abs_error_estimate, abs(s1 * u1) * f1.abs_error_estimate]),
    ])
    return [RealValue(g * v, abs(g) * e) for g, v, e in zip(gs, vals, errs)]


def _uy_monic_seqs(af: float, bf: float, cf: float, x: float, nmax: int):
    """Tilde-normalized U and Y, as (values, errors) pairs of lists.

    Both carry the same prefactor, the one that makes U monic.  Under
    that shared scaling each is a solution of the same monic recurrence
    (for Y this is the monic scaling of the U family at parameters
    (alpha, -beta, beta+c), whose shift and product coincide); only the
    seeds differ, so the two are stepped together.
    """
    if cf + 1.0 == 0.0 or af + bf + cf + 1.0 == 0.0:
        raise DomainError("the scale of the degree-one seed has a pole")
    u0 = f21_real(-cf, af + bf + cf + 1.0, 1.0 + bf, x)
    u1s = f21_real(-1.0 - cf, af + bf + cf + 2.0, 1.0 + bf, x)
    u1 = -(bf + cf + 1.0) / (cf + 1.0) * u1s.value
    y0 = f21_real(-bf - cf, af + cf + 1.0, 1.0 - bf, x)
    y1s = f21_real(-1.0 - bf - cf, af + cf + 2.0, 1.0 - bf, x)
    y1 = -(af + cf + 1.0) / (af + bf + cf + 1.0) * y1s.value
    su = _seed_scale(af, bf, cf)
    return _monic_steps(functools.partial(_monic_coeffs, af, bf, cf), x, nmax, [
        ([u0.value, su * u1],
         [u0.abs_error_estimate, abs(su * (bf + cf + 1.0) / (cf + 1.0)) * u1s.abs_error_estimate]),
        ([y0.value, su * y1],
         [y0.abs_error_estimate, abs(su * (af + cf + 1.0) / (af + bf + cf + 1.0)) * y1s.abs_error_estimate]),
    ])


def u_and_y_seq(params, x: float, nmax: int):
    """U_n(x) and Y_n(x) for n = 0..nmax at the given (alpha, beta, c)."""
    af, bf, cf = double_params(params)
    gs = _scale_factors(nmax, lambda n: (
        (af + bf + 2 * cf + 1.0 + 2 * n) * (af + bf + 2 * cf + 2.0 + 2 * n)
        / ((cf + 1.0 + n) * (af + bf + cf + 1.0 + n))
    ))
    (uv, ue), (yv, ye) = _uy_monic_seqs(af, bf, cf, x, nmax)
    us = [RealValue(g * v, abs(g) * e) for g, v, e in zip(gs, uv, ue)]
    ys = [RealValue(g * v, abs(g) * e) for g, v, e in zip(gs, yv, ye)]
    return us, ys


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


_CANONICAL = double_params(S_SET[1])


def buv_combination(n: int, x: float) -> float:
    """C(x) Utilde_n(x) + D(x) Ytilde_n(x) at the canonical parameters.

    Both tilde normalizations carry the same prefactor, the one that makes
    U monic; the result reproduces the normalized degree-(n+1) Atkin
    polynomial at x.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("buv_combination requires x in (0, 1)")
    af, bf, cf = _CANONICAL
    (uv, _), (yv, _) = _uy_monic_seqs(af, bf, cf, x, n)
    cx, dx = c_and_d(x)
    return cx.value * uv[n] + dx.value * yv[n]


@functools.cache
def _float_coeffs(m: int):
    # shift lambda_m + mu_m and product lambda_{m-1} mu_m, rounded once each, for m >= 2
    lam, mu = atkin_rates(m)
    return float(lam + mu), float(atkin_rates(m - 1)[0] * mu)


def atkin_normalized_value_seq(nmax: int, x: float):
    """Float values of the normalized polynomials at x, degrees 0..nmax.

    Runs the three-term recurrence in the value domain, on the float
    stepper ``_monic_steps``.  Unlike Horner on the exact coefficients,
    which cancels catastrophically once the values drop toward 4^-n, this
    stays accurate to a few ulp relative to the solution envelope.
    """
    if nmax < 0:
        raise DomainError("nmax must be nonnegative")
    if not math.isfinite(x):
        raise DomainError("x must be finite, got %r" % x)
    # degree 2 from its exact coefficients: a step at m = 1 rounds differently
    a1, a2 = atkin_normalized(1).coeffs, atkin_normalized(2).coeffs
    seed = [1.0, x + float(a1[0]), x * x + float(a2[1]) * x + float(a2[0])]
    [(vals, _)] = _monic_steps(_float_coeffs, x, nmax, [(seed, [0.0, 0.0, 0.0])])
    # an inf or NaN value makes every later one inf or NaN: the last one tells
    if not math.isfinite(vals[-1]):
        raise DomainError("degree-%d value at x=%r is past the range of a double" % (nmax, x))
    return vals


def atkin_normalized_value(n: int, x: float) -> float:
    return atkin_normalized_value_seq(n, x)[n]
