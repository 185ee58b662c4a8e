"""Exact rational arithmetic primitives.

Rationals are :class:`fractions.Fraction`, which already provides
canonical form (positive denominator, reduced by gcd) after every
operation and raises on division by zero.  On top of it live the
combinatorial helpers used throughout: rising factorials, Catalan numbers
and ``pfq``, whose integer core ``_pfq_int`` sums the terminating series of
every explicit coefficient formula in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); the empty product is 1."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def catalan(n: int) -> int:
    """Catalan number binomial(2n, n)/(n+1)."""
    if n < 0:
        raise DomainError("catalan requires n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def pfq(numerator_params, denominator_params, argument) -> Fraction:
    """Exact sum of a terminating pFq at a rational argument.

    The parameters go over their common denominator D, and ``_pfq_int``
    sums the series in integers; a single Fraction is made at the end.
    """
    nums = [Fraction(v) for v in numerator_params]
    dens = [Fraction(v) for v in denominator_params]
    z = Fraction(argument)
    scale = math.lcm(*(v.denominator for v in nums + dens))
    big = [v.numerator * (scale // v.denominator) for v in nums + dens]
    num, den = _pfq_int(big[: len(nums)], big[len(nums) :], scale, z.numerator, z.denominator)
    return Fraction(num, den)


def _pfq_int(big_a, big_b, scale: int, znum: int, zden: int):
    """(num, den), unreduced, of the terminating pFq with parameters A/D
    for A in ``big_a`` over B/D for B in ``big_b``, D = ``scale`` > 0, at
    znum/zden.  The sum is nested as 1 + r_0 (1 + r_1 (1 + ...)), with the
    ratio of term k+1 to term k r_k = z D^(q-p) prod(A + kD) / ((k + 1)
    prod(B + kD)), and evaluated from the last term down; den depends only
    on B, D, zden and the number of terms."""
    stops = [-a for a in big_a if a % scale == 0 and a <= 0]
    if not stops:
        raise DomainError("series does not terminate: no nonpositive-integer numerator parameter")
    terms = min(stops) // scale  # summation index runs 0..terms
    for b in big_b:
        if b % scale == 0 and b <= 0 and -b < terms * scale:
            pole = Fraction(b, scale)
            raise DomainError("denominator parameter %s vanishes before the series terminates" % pole)
    excess = len(big_b) - len(big_a)
    znum *= scale ** max(excess, 0)
    zden *= scale ** max(-excess, 0)
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
    return num, den


def rat_str(q) -> str:
    """Serialize a rational as "num/den" in lowest terms, "num" if integral.
    A part longer than Python's int-to-str digit limit is a DomainError."""
    q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
    except ValueError:
        raise DomainError("a rational has more digits than Python's int-to-str limit") from None
