"""Dense univariate polynomials over the rationals, and the engine that
generates a monic three-term recurrence from its birth and death rates.

``RatPoly`` is a value type: coefficients ascending by degree, trailing
zeros trimmed, so the zero polynomial is the empty tuple.  It does no
arithmetic: all exact arithmetic is done in integer kernels over one common
denominator (``_recur``, ``poly_eval``, the explicit forms).  Floating
evaluation belongs to the numeric modules.
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

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "RatPoly(%r)" % (list(self.coeffs),)


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


def _recur(p, s, r, q):
    """(x - s) P - q R for members p = (numerators, d) of P and r of R, as
    a member over its least common denominator.  s and q are Fractions or
    ints, used as they are; R, maybe the zero member ((), 1), is no longer
    than P, so the result is one longer and its last entry nonzero."""
    (pn, pd), (rn, rd) = p, r
    # the result over den, a common multiple of pd s.den and rd q.den
    den = lcm(pd * s.denominator, rd * q.denominator)
    u = den // pd
    v = s.numerator * (u // s.denominator)
    w = q.numerator * (den // (rd * q.denominator))
    out = [0] + [u * c for c in pn]
    for i, c in enumerate(pn):
        out[i] -= v * c
    for i, c in enumerate(rn):
        out[i] -= w * c
    g = gcd(den, *out)
    if g > 1:
        return tuple([c // g for c in out]), den // g
    return tuple(out), den


def _poly_of(member) -> RatPoly:
    """The RatPoly of a member (numerators, d)."""
    nums, den = member
    return RatPoly._from_fractions([Fraction(c, den) for c in nums])


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
    common denominator of the coefficients.  A step is one ``_recur`` on
    the last two members, O(m) integer operations.  ``member(n)`` hands
    out that integer pair; ``poly(n)`` builds the RatPoly value of P_n on
    request and caches it.  Both caches are append-only and unbounded,
    and live as long as the object; filling them is not thread-safe.
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
            p = self._polys[n] = _poly_of(self.member(n))
        return p

    def _step(self, m: int):
        lam, mu = self._rates(m)
        nxt = _recur(self._members[-1], lam + mu, self._members[-2], self._lam * mu)
        self._lam = lam
        return nxt


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
