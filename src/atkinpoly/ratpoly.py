"""Dense univariate polynomials over the rationals, and the engine that
generates a monic three-term recurrence from its birth and death rates.

Coefficients are stored ascending by degree with trailing zeros trimmed,
so the zero polynomial is the empty tuple and the leading coefficient of
anything else is nonzero.  All arithmetic is exact; floating evaluation
belongs to the numeric modules.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError
from .fp import FpPoly


class RatPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _from_fractions(cls, coeffs) -> "RatPoly":
        """Wrap Fractions that already have a nonzero last entry, skipping
        the conversion and trimming of __init__."""
        p = object.__new__(cls)
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other):
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == _coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "RatPoly(%r)" % (list(self.coeffs),)


def _coerce(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    return RatPoly((Fraction(v),))


def poly_eval(p: RatPoly, x) -> Fraction:
    """Exact Horner evaluation, in integers: with L the least common
    denominator of the coefficients c_j and x = xn/xd, the homogeneous
    Horner sum of L c_j xn^j xd^(N-j) over L xd^N is one Fraction."""
    x = Fraction(x)
    cs = p.coeffs
    if not cs:
        return Fraction(0)
    xn, xd = x.numerator, x.denominator
    big_l = lcm(*(c.denominator for c in cs))
    acc, xd_power = 0, 1
    for c in reversed(cs):
        acc = acc * xn + c.numerator * (big_l // c.denominator) * xd_power
        xd_power *= xd
    return Fraction(acc, big_l * (xd_power // xd))


class MonicRecurrence:
    """Members of the monic three-term recurrence with birth and death
    rates (lambda_m, mu_m),

        P_0 = 1,    P_1 = x - lambda_0 - mu_0,
        P_{m+1} = (x - lambda_m - mu_m) P_m - lambda_{m-1} mu_m P_{m-1}.

    ``rates(m)`` returns (lambda_m, mu_m), ints or Fractions, and is asked
    once per index, in order: index 0 at construction, so a pole there
    raises from the constructor.  An exception at index m >= 1 leaves
    P_0..P_m in place and reaches the caller again on every request past
    degree m.

    Every member is held as a tuple of integer numerators over one common
    denominator, reduced by their gcd, so the denominator is the least
    common denominator of the coefficients.  A step reads the last two
    members only and costs O(m) integer operations and no Fraction
    arithmetic beyond the rates.  ``member(n)`` hands out that integer
    pair; ``poly(n)`` builds the RatPoly of P_n on request and caches it.
    Both caches are append-only and unbounded, and live as long as the
    object; filling them is not thread-safe.
    """

    def __init__(self, rates):
        lam, mu = rates(0)
        s = lam + mu
        self._members = [((1,), 1), ((-s.numerator, s.denominator), s.denominator)]
        self._polys = {}
        self._rates = rates
        self._lam = lam  # lambda_{m-1} for the next step m

    def member(self, n: int):
        """(numerators, d) with P_n = sum numerators[j] x^j / d, d > 0 the
        least common denominator; generates every member up to n."""
        if n < 0:
            raise DomainError("degree must be nonnegative")
        members = self._members
        while len(members) <= n:
            members.append(self._step(len(members) - 1))
        return members[n]

    def poly(self, n: int) -> RatPoly:
        """P_n as a RatPoly, built once and cached."""
        p = self._polys.get(n)
        if p is None:
            nums, den = self.member(n)
            p = self._polys[n] = RatPoly._from_fractions([Fraction(c, den) for c in nums])
        return p

    def _step(self, m: int):
        (prev, prev_den), (cur, cur_den) = self._members[-2], self._members[-1]
        lam, mu = self._rates(m)
        s = lam + mu
        q = self._lam * mu
        # P_{m+1} = x*cur/cur_den - s*cur/cur_den - q*prev/prev_den, over den
        den = lcm(cur_den * s.denominator, prev_den * q.denominator)
        u = den // cur_den
        v = s.numerator * (u // s.denominator)
        w = q.numerator * (den // (prev_den * q.denominator))
        nxt = [0] + [u * c for c in cur]
        for i, c in enumerate(cur):
            nxt[i] -= v * c
        for i, c in enumerate(prev):
            nxt[i] -= w * c
        self._lam = lam
        g = gcd(den, *nxt)
        if g > 1:
            return tuple([c // g for c in nxt]), den // g
        return tuple(nxt), den


def reduce_mod_p(p: RatPoly, prime: int) -> FpPoly:
    """Coefficient-wise image in F_p; requires every denominator invertible."""
    out = []
    for c in p.coeffs:
        if c.denominator % prime == 0:
            raise DomainError(
                "coefficient %s has denominator divisible by %d" % (c, prime)
            )
        out.append(c.numerator * pow(c.denominator, prime - 2, prime) % prime)
    return FpPoly(prime, out)
