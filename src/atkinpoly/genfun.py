"""Generating-function identities: the summation identity for the
hypergeometric profile, the delta/epsilon algebra it runs on, the
generating functions for the U/Y pair, and the Catalan-weighted Atkin
generating function with its endpoint specializations.

Each check op returns (partial sum, closed form); callers compare.  The
partial sums converge geometrically in |t|, so the default horizons in
the CLI are modest.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .atkin import atkin_at_one_seq, atkin_at_zero_seq
from .errors import DomainError
from .hypergeom import (_scale_factors, atkin_normalized_value_seq, c_and_d, checked_denominator, double_params,
                        f21_profile_seq, f21_real, u_and_y_seq)


class DeltaEpsilon(namedtuple("DeltaEpsilon", "t x delta epsilon")):
    __slots__ = ()


def delta_eps(t: float, x: float) -> DeltaEpsilon:
    """Roots delta <= epsilon of t y^2 - (1+t) y + x, as a DeltaEpsilon."""
    if t == 0.0:
        raise DomainError("t must be nonzero")
    disc = (1.0 + t) * (1.0 + t) - 4.0 * x * t
    if disc < 0.0:
        raise DomainError("discriminant negative at t=%r, x=%r" % (t, x))
    root = math.sqrt(disc)
    # delta via the conjugate form; avoids cancellation for small x*t
    delta = 2.0 * x / ((1.0 + t) + root)
    epsilon = ((1.0 + t) + root) / (2.0 * t)
    return DeltaEpsilon(t, x, delta, epsilon)


def _substitution(x: float, t: float) -> float:
    """delta(t, x), which is x at t = 0; refused unless x - t*delta > 0."""
    delta = x if t == 0.0 else delta_eps(t, x).delta
    if x - t * delta <= 0.0:
        raise DomainError("x - t*delta must stay positive")
    return delta


def _check_series(t: float, N: int):
    # every series here needs |t| < 1 to converge and at least one term
    if not abs(t) < 1.0:
        raise DomainError("|t| must be below 1")
    if N < 1:
        raise DomainError("N must be positive")


def fjk_check(a: float, b: float, d: float, x: float, t: float, N: int):
    """Partial sum vs closed form of the summation identity

        sum_n (d+a)_n (b)_n / ((a+b+1)_n n!) 2F1(-n-a, n+b; d; x) (-t)^n.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in (0, 1)")
    _check_series(t, N)
    if t == 0.0:
        v = f21_real(-a, b, d, x).value
        return v, v
    # 2F1(-n-a, n+b; d; x) is the profile at (a', b') = (b, -a)
    prof = f21_profile_seq(b, -a, d, x, N)
    cs = _scale_factors(N, lambda n: -t * (d + a + n) * (b + n) / ((a + b + 1.0 + n) * (n + 1.0)))
    lhs = 0.0
    for c, v in zip(cs, prof):
        lhs += c * v.value
    delta = _substitution(x, t)
    try:
        p1, p2, den = (x - t * delta) ** (a + d - b), delta**b, x ** (a + d)
    except OverflowError:
        raise DomainError("a power in the closed form overflows a double at x=%r" % x) from None
    rhs = (
        p1
        * p2
        / checked_denominator(den, "x=%r" % x)
        * f21_real(-a, b, d, delta).value
        * f21_real(a + d, a + 1.0, a + b + 1.0, t * delta / x).value
    )
    return lhs, rhs


class GenUYResult(
    namedtuple("GenUYResult", "u_partial_sum u_closed_form y_partial_sum y_closed_form")
):
    __slots__ = ()


def gen_uy_check(params, x: float, t: float, N: int) -> GenUYResult:
    """Generating functions of U_n and Y_n: partial sums vs closed forms."""
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in (0, 1)")
    _check_series(t, N)
    af, bf, cf = double_params(params)
    u_first = (-cf, af + bf + cf + 1.0, 1.0 + bf)
    y_first = (-bf - cf, af + cf + 1.0, 1.0 - bf)
    if t == 0.0:
        u0 = f21_real(*u_first, x).value
        y0 = f21_real(*y_first, x).value
        return GenUYResult(u0, u0, y0, y0)
    us, ys = u_and_y_seq(params, x, N)
    cs = _scale_factors(N, lambda n: t * (af + bf + cf + 1.0 + n) * (cf + 1.0 + n) / (
        (af + bf + 2.0 * cf + 2.0 + n) * (n + 1.0)
    ))
    lhs_u = lhs_y = 0.0
    for c, u, y in zip(cs, us, ys):
        lhs_u += c * u.value
        lhs_y += c * y.value
    delta = _substitution(x, t)
    ratio = t * delta / x
    # each closed form is delta^(first b) / (x^(second a) (x - t delta)^af)
    # times the first 2F1 at delta and the second at t delta / x
    c2 = af + bf + 2.0 * cf + 2.0
    forms = ((u_first, (bf + cf + 1.0, cf + 1.0, c2)), (y_first, (cf + 1.0, bf + cf + 1.0, c2)))
    try:
        powers = [(delta ** first[1], x ** second[0]) for first, second in forms]
        rest = (x - t * delta) ** af
    except OverflowError:
        raise DomainError("a power in the closed form overflows a double at x=%r" % x) from None
    rhs_u, rhs_y = (
        d
        / checked_denominator(xp * rest, "x=%r" % x)
        * f21_real(*first, delta).value
        * f21_real(*second, ratio).value
        for (d, xp), (first, second) in zip(powers, forms)
    )
    return GenUYResult(lhs_u, rhs_u, lhs_y, rhs_y)


def _catalan_sum(z: float, N: int, values) -> float:
    """sum_{n<=N} catalan(n + 1) v_n z^n with v = values(N + 1), indexed
    from degree 1.  The Catalan weights come first, from their running
    ratio, each turned into a double; the first that overflows names the
    horizon, so N past it is refused before v is built.  Added term by
    term: the builtin sum compensates from Python 3.12 on."""
    _check_series(z, N)
    weights, cat = [], 1  # cat = catalan(n + 1)
    for n in range(N + 1):
        try:
            weights.append(float(cat))
        except OverflowError:
            raise DomainError(
                "N = %d is past %d, the last horizon whose Catalan weight fits a double" % (N, n - 1)
            ) from None
        cat = cat * 2 * (2 * n + 3) // (n + 3)  # catalan(n + 2)
    lhs = 0.0
    for n, (w, v) in enumerate(zip(weights, values(N + 1))):
        lhs += w * float(v) * z**n
    return lhs


def catalan_gen_check(x: float, t: float, N: int):
    """Catalan-weighted Atkin generating function: partial sum vs closed form.

    The direction of the 2/3-power on the second closed-form term is
    (delta/x), pinned numerically: the residual sits at the truncation
    level with it and at O(1) with (x/delta).
    """
    if not 0.0 < x < 1.0:
        raise DomainError("x must lie in (0, 1)")
    lhs = _catalan_sum(t, N, lambda m: atkin_normalized_value_seq(m, x)[1:])
    delta = _substitution(x, t)
    cx, dx = c_and_d(x)
    bracket = (
        cx.value * f21_real(-7.0 / 12.0, 17.0 / 12.0, 1.0 / 3.0, delta).value
        + dx.value
        * (delta / x) ** (2.0 / 3.0)
        * f21_real(1.0 / 12.0, 25.0 / 12.0, 5.0 / 3.0, delta).value
    )
    rhs = (
        delta ** (17.0 / 12.0)
        / checked_denominator(x ** (11.0 / 12.0) * math.sqrt(x - t * delta), "x=%r" % x)
        * f21_real(11.0 / 12.0, 19.0 / 12.0, 3.0, t * delta / x).value
        * bracket
    )
    return lhs, rhs


def gen_at_zero(t: float, N: int):
    """Value of the Catalan-weighted generating function at x = 0.

    Partial sum uses the exact constant terms; the closed form is
    (-5/12) 2F1(11/12, 17/12; 3; t) after the t -> -t flip.
    """
    lhs = _catalan_sum(-t, N, atkin_at_zero_seq)
    rhs = -5.0 / 12.0 * f21_real(11.0 / 12.0, 17.0 / 12.0, 3.0, t).value
    return lhs, rhs


def gen_at_one(t: float, N: int):
    """Value of the Catalan-weighted generating function at x = 1."""
    lhs = _catalan_sum(t, N, atkin_at_one_seq)
    rhs = 7.0 / 12.0 * f21_real(11.0 / 12.0, 19.0 / 12.0, 3.0, t).value
    return lhs, rhs


def gen_zero_pfaff_residual(t: float) -> float:
    """Residual of the t -> -t flip behind gen_at_zero: the two 2F1 forms
    must agree after the standard argument transformation."""
    if not -0.5 < t < 1.0:
        raise DomainError("t must lie in (-1/2, 1)")
    lhs = f21_real(11.0 / 12.0, 17.0 / 12.0, 3.0, -t).value
    rhs = (1.0 + t) ** (-11.0 / 12.0) * f21_real(
        11.0 / 12.0, 19.0 / 12.0, 3.0, t / (1.0 + t)
    ).value
    return abs(lhs - rhs)
