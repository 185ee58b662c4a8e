"""The Atkin family of monic orthogonal polynomials.

The normalized family, on (0, 1), steps from the rates of V at
``S_SET[1]`` one index down (``atkin_rates(n)``, n >= 1) after the
co-recursive start lambda_0 = 5/12, mu_0 = 0.  A_n, orthogonal on
(0, 1728), has 1728 times those rates; ``ratpoly.MonicRecurrence``
holds it as integer numerators a_j over a common denominator d, and
A_n(1728 y)/1728^n is read off them: the numerators a_j 1728^j over
d 1728^n.
The multiplied-out recurrences are the second route, in the tests.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .assoc_jacobi import S_SET, Variant, _rates_of
from .errors import DomainError
from .hypergeom import _monic_steps, _pfq_int
from .ratpoly import MonicRecurrence, RatPoly

_F = Fraction

_V_RATES = _rates_of(S_SET[1], Variant.V)


def atkin_rates(n: int):
    """Birth and death rates of the normalized family: V's at S_SET[1], index n - 1."""
    if n < 1:
        raise DomainError("rates are defined for n >= 1")
    return _V_RATES(n - 1)


def _rates(m: int):
    """(lambda_m, mu_m) of the normalized family, co-recursive at m = 0."""
    return (_F(5, 12), _F(0)) if m == 0 else atkin_rates(m)


@functools.cache
def _float_coeffs(m: int):
    # shift lambda_m + mu_m and product lambda_{m-1} mu_m, rounded once each
    lam, mu = _rates(m)
    return float(lam + mu), float(_rates(m - 1)[0] * mu)


# Per-process caches, append-only and unbounded; filling them is
# single-threaded.
_ORIGINAL = MonicRecurrence(lambda m: [_F(1728 * r.numerator, r.denominator) for r in _rates(m)])
_NORMALIZED: dict = {}  # degree -> RatPoly


def atkin(n: int) -> RatPoly:
    """Monic A_n on the original scale."""
    return _ORIGINAL.poly(n)


def atkin_normalized(n: int) -> RatPoly:
    """Monic normalized polynomial of degree n, A_n(1728 y)/1728^n."""
    p = _NORMALIZED.get(n)
    if p is None:
        a = _ORIGINAL.poly(n)
        p = _NORMALIZED[n] = RatPoly._reduced([c * 1728**j for j, c in enumerate(a.nums)], a.den * 1728**n)
    return p


def kz_explicit(n: int) -> RatPoly:
    """Normalized polynomial of degree n from the Kaneko-Zagier double
    binomial sum; evaluated exactly, it must reproduce the recurrence.

    Coefficient of x^(n-i): C(-1/12, i) C(-5/12, i) 4F3(-i, -i, -n-1/12, 7/12-n; 11/12-i, 7/12-i, 1-2n; 1).
    It is the inner sum over m, by C(a, i-m) = C(a, i) (-1)^m (-i)_m/(a-i+1)_m.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    coeffs = [None] * (n + 1)
    bn = bd = 1  # the two binomials at i as one ratio of integers, in lowest terms
    for i in range(n + 1):
        # over d = 12; 1 - 2n never vanishes first: the series ends at i <= n <= 2n - 1
        nums = (-12 * i, -12 * i, -12 * n - 1, 7 - 12 * n)
        fn, fd = _pfq_int(nums, (11 - 12 * i, 7 - 12 * i, 12 - 24 * n), 12, 1, 1)
        coeffs[n - i] = Fraction(bn * fn, bd * fd)
        bn *= (1 + 12 * i) * (5 + 12 * i)
        bd *= 144 * (i + 1) ** 2
        g = math.gcd(bn, bd)
        bn, bd = bn // g, bd // g
    return RatPoly(coeffs)


def atkin_at_zero(n: int) -> Fraction:
    """Exact value of the normalized degree-n polynomial at 0, n >= 1."""
    if n < 1:
        raise DomainError("closed form holds for n >= 1")
    return _endpoint(_F(-5, 12), 17, -1, n)


def atkin_at_one(n: int) -> Fraction:
    """Exact value of the normalized degree-n polynomial at 1, n >= 1."""
    if n < 1:
        raise DomainError("closed form holds for n >= 1")
    return _endpoint(_F(7, 12), 19, 1, n)


def _endpoint(first: Fraction, q: int, sign: int, n: int) -> Fraction:
    # the last entry of _endpoint_seq(first, q, sign, n), as one product:
    # the ratios' denominators multiply to 144^(n-1) (2n-1)!
    num = first.numerator * math.prod([sign * (11 + 12 * m) * (q + 12 * m) for m in range(n - 1)])
    return Fraction(num, first.denominator * 144 ** (n - 1) * math.factorial(2 * n - 1))


def _endpoint_seq(first: Fraction, q: int, sign: int, nmax: int):
    # first * sign^m (11/12)_m (q/12)_m / (2m+1)! for m = 0..nmax-1, each
    # term from the one before it by its ratio
    out = []
    v = first
    for m in range(nmax):
        out.append(v)
        v *= _F(sign * (11 + 12 * m) * (q + 12 * m), 144 * (2 * m + 2) * (2 * m + 3))
    return out


def atkin_at_zero_seq(nmax: int):
    """Values at 0 of the normalized polynomials of degrees 1..nmax, by
    term ratios in O(nmax) steps."""
    return _endpoint_seq(_F(-5, 12), 17, -1, nmax)


def atkin_at_one_seq(nmax: int):
    """Values at 1 of the normalized polynomials of degrees 1..nmax, by
    term ratios in O(nmax) steps."""
    return _endpoint_seq(_F(7, 12), 19, 1, nmax)


def atkin_normalized_value_seq(nmax: int, x: float):
    """Float values of the normalized polynomials at x, degrees 0..nmax.

    Runs the three-term recurrence in the value domain, on the float
    stepper of ``hypergeom``.  Unlike Horner on the exact coefficients,
    which cancels catastrophically once the values drop toward 4^-n, this
    stays accurate to a few ulp relative to the solution envelope.
    """
    if nmax < 0:
        raise DomainError("nmax must be nonnegative")
    # degree 2 from its exact coefficients: a step at m = 1 rounds differently
    seed = [1.0, x - 5.0 / 12.0, x * x - float(_F(205, 216)) * x + float(_F(935, 10368))]
    [(vals, _)] = _monic_steps(_float_coeffs, x, nmax, [(seed, [0.0, 0.0, 0.0])])
    return vals


def atkin_normalized_value(n: int, x: float) -> float:
    return atkin_normalized_value_seq(n, x)[n]
