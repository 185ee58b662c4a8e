"""Exact rational arithmetic primitives.

Rationals are :class:`fractions.Fraction`, which already provides
canonical form (positive denominator, reduced by gcd) after every
operation and raises on division by zero.  On top of it live the
combinatorial helpers used throughout: rising factorials and Catalan
numbers.
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


def rat_str(q) -> str:
    """Serialize a rational as "num/den" in lowest terms, "num" if integral.
    A part longer than Python's int-to-str digit limit is a DomainError."""
    q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
    except ValueError:
        raise DomainError("a rational has more digits than Python's int-to-str limit") from None
