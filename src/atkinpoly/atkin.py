"""The Atkin family of monic orthogonal polynomials.

Two exact routes give A_n, orthogonal on (0, 1728).

The three-term recurrence on the paper's rates is the route every check
compares against (``_three_term``: rep-check, explicit-check, the
selftest criteria 2-3 and ``supersingular.atkin_mod_p``).  The
normalized family, on (0, 1), steps from the rates of V at ``S_SET[1]``
one index down (``atkin_rates(n)``, n >= 1) after the co-recursive start
lambda_0 = 5/12, mu_0 = 0; A_n has 1728 times those rates, and
``ratpoly.MonicRecurrence`` steps it to degree n in O(n^2) integer
operations.

``atkin(n)`` runs a recurrence in the coefficient index instead: O(n)
integer operations for one degree, memoized per degree.  Summing the
inner sum of ``kz_explicit``'s double sum as a Cauchy product gives the
normalized A_n(x) = sum_{i <= n} h_i x^(n-i), with h_i = [t^i] F(t) G(t),
F = 2F1(1/12, 5/12; 1; t) and G = 2F1(-n - 1/12, 7/12 - n; 1 - 2n; t)
(G's terms exist up to t^(2n-1), past every i <= n).  Each factor is
annihilated by its Gauss operator theta (theta + c - 1)
- t (theta + a)(theta + b), theta = t d/dt.  Their symmetric product,
linear algebra over Q(n, t) on the basis FG, F'G, FG', F'G', is one
order-4 operator whose coefficients have degree 3 in t, and reading off
t^i gives, with k = i - n and N = n^2,

    c0 h_i + c1 h_{i-1} + c2 h_{i-2} + c3 h_{i-3} = 0,
    c0 = -864 N (k^2 - N)^2 = -864 i^2 n^2 (i - 2n)^2,
    c1 = 12 (6 (k - 1)^3 (k - 2) + N (144k^4 - 360k^3 + 346k^2 - 143k + 12)
             - 18 N^2 (8k^2 - 12k + 3)),
    c2 = -(k - 2) (144k^3 - 792k^2 + 1474k - 933 + 96 N (9k^3 - 27k^2 + 23k - 3)),
    c3 = 8 (k - 3)(k - 2)(3k - 8)(3k - 7),

from h_0 = 1, with c0 != 0 for 1 <= i <= n.
``tools/derive_atkin_coefficient_recurrence.py`` (sympy, run in CI)
prints c0..c3 and checks them against ``atkin_normalized``.  The
coefficient of x^(n-i) in A_n is e_i = 1728^i h_i, so that

    n^2 i^2 (i - 2n)^2 e_i = 2 c1 e_{i-1} + 3456 c2 e_{i-2} + 5971968 c3 e_{i-3},

which ``_coefficient_recurrence`` runs in integers.
``atkin_normalized(n)`` is rescaled from ``atkin(n)``: the numerators a_j
of A_n over its denominator d give A_n(1728 y)/1728^n as a_j 1728^j over
d 1728^n.  The multiplied-out three-term recurrences are a third route,
in the tests.  The float values, on these rates, are ``hypergeom``'s.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .assoc_jacobi import S_SET, Variant, _rates_of
from .errors import DomainError
from .exact import _pfq_int
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


# Per-process caches, append-only and unbounded; filling them is
# single-threaded.
_ORIGINAL = MonicRecurrence(lambda m: [_F(1728 * r.numerator, r.denominator) for r in _rates(m)])
_ATKIN: dict = {}  # degree -> RatPoly, from the coefficient recurrence
_NORMALIZED: dict = {}  # degree -> RatPoly, rescaled from _ATKIN


def atkin(n: int) -> RatPoly:
    """Monic A_n on the original scale, from the recurrence in its coefficient index."""
    p = _ATKIN.get(n)
    if p is None:
        if n < 0:
            raise DomainError("degree must be nonnegative")
        p = _ATKIN[n] = _coefficient_recurrence(n)
    return p


def atkin_normalized(n: int) -> RatPoly:
    """Monic normalized polynomial of degree n, A_n(1728 y)/1728^n."""
    p = _NORMALIZED.get(n)
    if p is None:
        p = _NORMALIZED[n] = _normalize(atkin(n))
    return p


def _three_term(n: int, normalized: bool = False) -> RatPoly:
    """A_n, or the normalized polynomial, from the three-term recurrence on
    the paper's rates: the target of every check, kept apart from ``atkin``."""
    a = _ORIGINAL.poly(n)
    return _normalize(a) if normalized else a


def _normalize(a: RatPoly) -> RatPoly:
    # the numerators a_j 1728^j over d 1728^n, each power one product from the last
    nums, power = [], 1
    for c in a.nums:
        nums.append(c * power)
        power *= 1728
    return RatPoly._reduced(nums, a.den * (power // 1728))


def _coefficient_recurrence(n: int) -> RatPoly:
    """A_n from e_0 = 1 and the recurrence of the module docstring, n >= 0.

    e_i is kept as one numerator over den_i = den_{i-1} r_i: the sum x of
    the right-hand side is over den_{i-1}, and with g = gcd(x, n^2 i^2 (i - 2n)^2)
    the numerator is x/g and r_i = n^2 i^2 (i - 2n)^2/g, a small integer.
    """
    nn = n * n
    # 2 c1 = sum_j p_j k^j, and 3456 c2 = (k - 2) sum_j q_j k^j
    p4, p3 = 24 * (144 * nn + 6), -24 * (360 * nn + 30)
    p2 = 24 * (-144 * nn * nn + 346 * nn + 54)
    p1 = 24 * (216 * nn * nn - 143 * nn - 42)
    p0 = 24 * (-54 * nn * nn + 12 * nn + 12)
    q3, q2 = -3456 * (864 * nn + 144), 3456 * (2592 * nn + 792)
    q1, q0 = -3456 * (2208 * nn + 1474), 3456 * (288 * nn + 933)
    nums, ratios = [1], [1]
    e1, e2, e3, r1, r2 = 1, 0, 0, 1, 1  # e_{i-1}, e_{i-2}, e_{i-3}, r_{i-1}, r_{i-2}
    for i in range(1, n + 1):
        k = i - n
        d = (n * i * (i - 2 * n)) ** 2
        x = ((((p4 * k + p3) * k + p2) * k + p1) * k + p0) * e1
        x += (k - 2) * (((q3 * k + q2) * k + q1) * k + q0) * r1 * e2
        x += 5971968 * 8 * (k - 3) * (k - 2) * (3 * k - 8) * (3 * k - 7) * r1 * r2 * e3
        e, rem = divmod(x, d)
        r = 1
        if rem:
            g = math.gcd(d, rem)
            e, r = x // g, d // g
        nums.append(e)
        ratios.append(r)
        e1, e2, e3, r1, r2 = e, e1, e2, r, r1
    # e_i goes to x^(n-i), over den_n: times r_{i+1} ... r_n
    out, den = [], 1
    for e, r in zip(reversed(nums), reversed(ratios)):
        out.append(e * den)
        den *= r
    return RatPoly._reduced(out, den)


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
