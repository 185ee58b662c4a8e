"""The Atkin family of monic orthogonal polynomials.

The original family A_n, orthogonal on (0, 1728), is generated by its
three-term recurrence through ``ratpoly.MonicRecurrence``, which holds
every member as integer numerators over a common denominator.  The
normalized family A_n(1728 y)/1728^n, living on (0, 1), is read off
those integers: its coefficient j is a_j / 1728^(n-j).  The normalized
recurrence is kept in the tests as the second route.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .exact import gen_binom_seq
from .ratpoly import MonicRecurrence, RatPoly

_F = Fraction

# recurrence coefficients of the original scale, valid for index n >= 2
def _orig_shift(n: int) -> Fraction:
    return _F(24 * (144 * n * n - 29), (2 * n + 1) * (2 * n - 1))


def _orig_prod(n: int) -> Fraction:
    return _F(
        36 * (12 * n - 13) * (12 * n - 7) * (12 * n - 5) * (12 * n + 1),
        n * (n - 1) * (2 * n - 1) ** 2,
    )


_SEEDS_ORIGINAL = (
    RatPoly((1,)),
    RatPoly((-720, 1)),
    RatPoly((269280, -1640, 1)),
)


# Per-process caches, append-only and unbounded; filling them is
# single-threaded.
_ORIGINAL = MonicRecurrence(_SEEDS_ORIGINAL, _orig_shift, _orig_prod)
_NORMALIZED: dict = {}  # degree -> RatPoly


def atkin(n: int) -> RatPoly:
    """Monic A_n on the original scale."""
    return _ORIGINAL.poly(n)


def atkin_normalized(n: int) -> RatPoly:
    """Monic normalized polynomial of degree n, A_n(1728 y)/1728^n."""
    p = _NORMALIZED.get(n)
    if p is None:
        nums, den = _ORIGINAL.member(n)
        coeffs = [None] * len(nums)
        for j in range(n, -1, -1):
            coeffs[j] = Fraction(nums[j], den)
            den *= 1728
        p = _NORMALIZED[n] = RatPoly._from_fractions(coeffs)
    return p


def atkin_rates(n: int):
    """Birth and death rates of the normalized family, n >= 1."""
    if n < 1:
        raise DomainError("rates are defined for n >= 1")
    lam = (n - _F(1, 12)) * (n + _F(5, 12)) / (2 * n * (2 * n + 1))
    mu = (n - _F(5, 12)) * (n + _F(1, 12)) / (2 * n * (2 * n - 1))
    return lam, mu


def kz_explicit(n: int) -> RatPoly:
    """Normalized polynomial of degree n from the double binomial sum.

    The coefficient of x^(n-i) is a sum over m of signed products of four
    generalized binomials divided by a binomial in 2n-1; evaluated
    exactly, it must reproduce the recurrence output.  Each of the five
    binomial sequences is built once, by term ratios.
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    b1, b2, b3, b4, b5 = (
        gen_binom_seq(a, n + 1)
        for a in (_F(-1, 12), _F(-5, 12), n + _F(1, 12), n - _F(7, 12), 2 * n - 1)
    )
    left = [x * y for x, y in zip(b1, b2)]  # the factors indexed by i - m
    right = [(-1) ** m * b3[m] * b4[m] / b5[m] for m in range(n + 1)]
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        coeffs[n - i] = sum((left[i - m] * right[m] for m in range(i + 1)), Fraction(0))
    return RatPoly(coeffs)


def atkin_at_zero(n: int) -> Fraction:
    """Exact value of the normalized degree-n polynomial at 0, n >= 1."""
    if n < 1:
        raise DomainError("closed form holds for n >= 1")
    return atkin_at_zero_seq(n)[-1]


def atkin_at_one(n: int) -> Fraction:
    """Exact value of the normalized degree-n polynomial at 1, n >= 1."""
    if n < 1:
        raise DomainError("closed form holds for n >= 1")
    return atkin_at_one_seq(n)[-1]


def _endpoint_seq(first: Fraction, p: int, q: int, sign: int, nmax: int):
    # first * sign^m (p/12)_m (q/12)_m / (2m+1)! for m = 0..nmax-1, each
    # term from the one before it by its ratio
    out = []
    v = first
    for m in range(nmax):
        out.append(v)
        v *= _F(sign * (p + 12 * m) * (q + 12 * m), 144 * (2 * m + 2) * (2 * m + 3))
    return out


def atkin_at_zero_seq(nmax: int):
    """Values at 0 of the normalized polynomials of degrees 1..nmax, by
    term ratios in O(nmax) steps."""
    return _endpoint_seq(_F(-5, 12), 11, 17, -1, nmax)


def atkin_at_one_seq(nmax: int):
    """Values at 1 of the normalized polynomials of degrees 1..nmax, by
    term ratios in O(nmax) steps."""
    return _endpoint_seq(_F(7, 12), 11, 19, 1, nmax)


def atkin_normalized_value_seq(nmax: int, x: float):
    """Float values of the normalized polynomials at x, degrees 0..nmax.

    Runs the three-term recurrence in the value domain.  Unlike Horner on
    the exact coefficients, which cancels catastrophically once the values
    drop toward 4^-n, this stays accurate to a few ulp relative to the
    solution envelope even for degrees in the hundreds.
    """
    if nmax < 0:
        raise DomainError("nmax must be nonnegative")
    out = [1.0]
    if nmax == 0:
        return out
    out.append(x - 5.0 / 12.0)
    if nmax >= 2:
        out.append(x * x - float(_F(205, 216)) * x + float(_F(935, 10368)))
    for m in range(2, nmax):
        shift = float(_orig_shift(m) / 1728)
        prod = float(_orig_prod(m) / 1728**2)
        out.append((x - shift) * out[m] - prod * out[m - 1])
    return out[: nmax + 1]


def atkin_normalized_value(n: int, x: float) -> float:
    return atkin_normalized_value_seq(n, x)[n]
