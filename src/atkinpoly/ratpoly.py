"""Dense univariate polynomials over the rationals, and the exact engine of
a monic three-term recurrence: ``MonicRecurrence`` builds its members from
the birth and death rates (the float stepper is ``hypergeom._monic_steps``).

``RatPoly`` is a value type in one canonical form: integer numerators
``nums``, ascending by degree with trailing zeros trimmed, over their
least common denominator ``den`` (``den > 0``, ``gcd(den, *nums) == 1``),
so the zero polynomial is ``nums == ()`` over 1.  It does no arithmetic:
all exact arithmetic is done in integer kernels on that form, ``_recur``,
``poly_eval`` and ``reduce_mod_p`` here and ``_coefficient_recurrence``
and ``_normalize`` in ``atkin``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError
from .fp import FpPoly, _is_prime


class RatPoly:
    """sum nums[j] x^j / den, from coefficients ascending by degree."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        den = lcm(*(c.denominator for c in cs))
        self.nums = tuple([c.numerator * (den // c.denominator) for c in cs])
        self.den = den
        self._coeffs = tuple(cs)

    @classmethod
    def _reduced(cls, nums, den: int) -> "RatPoly":
        """sum nums[j] x^j / den, den > 0 and nums[-1] != 0, divided by the gcd."""
        g = gcd(den, *nums)
        p = object.__new__(cls)
        p.nums = tuple([c // g for c in nums]) if g > 1 else tuple(nums)
        p.den = den // g
        p._coeffs = None
        return p

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, made on first read and kept."""
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = self._coeffs = tuple([Fraction(c, den) for c in self.nums])
        return cs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.nums) - 1

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return "RatPoly(%r)" % (list(self.coeffs),)


def poly_eval(p: RatPoly, x) -> Fraction:
    """Exact Horner evaluation, in integers: with x = xn/xd, the homogeneous
    Horner sum of nums[j] xn^j xd^(N-j) over den xd^N is one Fraction."""
    x = Fraction(x)
    if not p.nums:
        return Fraction(0)
    xn, xd = x.numerator, x.denominator
    acc, xd_power = 0, 1
    for c in reversed(p.nums):
        acc = acc * xn + c * xd_power
        xd_power *= xd
    return Fraction(acc, p.den * (xd_power // xd))


def _recur(p: RatPoly, s, r: RatPoly, q) -> RatPoly:
    """(x - s) P - q R.  s and q are Fractions or ints, used as they are;
    R, maybe the zero polynomial, is no longer than P, so the result is one
    longer and its last entry nonzero."""
    pn, pd, rn, rd = p.nums, p.den, r.nums, r.den
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
    return RatPoly._reduced(out, den)


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

    A step is one ``_recur`` on the last two members, O(m) integer
    operations on their numerators.  ``poly(n)`` hands out the member
    itself.  The members are append-only and unbounded, and live as long
    as the object; filling them is not thread-safe.
    """

    def __init__(self, rates):
        lam, mu = rates(0)
        self._members = [RatPoly.one(), RatPoly((-(lam + mu), 1))]
        self._rates = rates
        self._lam = lam  # lambda_{m-1} for the next step m

    def poly(self, n: int) -> RatPoly:
        """P_n; generates every member up to n."""
        if n < 0:
            raise DomainError("degree must be nonnegative")
        members = self._members
        while len(members) <= n:
            members.append(self._step(len(members) - 1))
        return members[n]

    def _step(self, m: int) -> RatPoly:
        lam, mu = self._rates(m)
        nxt = _recur(self._members[-1], lam + mu, self._members[-2], self._lam * mu)
        self._lam = lam
        return nxt


def reduce_mod_p(p: RatPoly, prime: int) -> FpPoly:
    """Image in F_p, prime p: the numerators times one inverse of den;
    requires den invertible."""
    if not _is_prime(prime):
        raise DomainError("p must be prime, got %r" % prime)
    if p.den % prime == 0:
        c = next(c for c in p.coeffs if c.denominator % prime == 0)
        raise DomainError("coefficient %s has denominator divisible by %d" % (c, prime))
    inv = pow(p.den, prime - 2, prime)
    return FpPoly(prime, [c * inv for c in p.nums])
