"""Associated Jacobi polynomials, plus the representations of the
normalized Atkin polynomials built from them.

Two associated families appear, differing only in how the index-zero
death rate enters the first polynomial: V keeps it, the calligraphic
variant drops it.  Both are generated from their birth and death rates
(``aj_rates``) alone by ``ratpoly.MonicRecurrence``,

    P_0 = 1,    P_1 = x - lambda_0 - mu_0,
    P_{m+1} = (x - lambda_m - mu_m) P_m - lambda_{m-1} mu_m P_{m-1},

so from degree one on they satisfy the same three-term recurrence; a
parameter triple at which a rate has a pole raises DomainError
at the first index that needs it.  The explicit double sums of Wimp are
the second route, and the paper's own explicit form is Wimp's with two
of its 4F3 parameters shifted.  At c = 0 the calligraphic variant is the
monic Jacobi family (``monic_jacobi``).  Four parameter triples (the S
constants below) tie these families to the normalized Atkin family,
which is co-recursive: its rates are those of V at the second triple
one index down, except lambda_0 = 5/12, mu_0 = 0; so each representation
is one step (x - s) P - q Q of the engine's integer kernel on two of the
engines' RatPoly members.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .errors import DomainError
from .exact import _pfq_int
from .ratpoly import MonicRecurrence, RatPoly, _recur

_F = Fraction


class Variant(Enum):
    V = "V"
    CALV = "calV"


class Representation(Enum):
    REP1 = "Rep1"
    REP2 = "Rep2"
    REP3 = "Rep3"


def _member(kind, value):
    """The member of the Enum ``kind`` that ``value`` names; a member passes through."""
    try:
        return kind(value)
    except ValueError:
        accepted = ", ".join(repr(m.value) for m in kind)
        name = kind.__name__.lower()
        raise DomainError("%s must be one of %s, got %r" % (name, accepted, value)) from None


class AJParams(namedtuple("AJParams", "alpha beta c")):
    """Parameter triple (alpha, beta, c) of an associated family, each
    coerced to a Fraction."""

    __slots__ = ()

    def __new__(cls, alpha, beta, c):
        return super().__new__(cls, Fraction(alpha), Fraction(beta), Fraction(c))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip the coercion
        return cls(*iterable)


# The four triples with alpha + beta + 2c = 1.  V is the same polynomial
# sequence for all four; the calligraphic variant pairs up by beta.
S_SET = (
    AJParams(_F(-1, 2), _F(-2, 3), _F(13, 12)),
    AJParams(_F(1, 2), _F(-2, 3), _F(7, 12)),
    AJParams(_F(-1, 2), _F(2, 3), _F(5, 12)),
    AJParams(_F(1, 2), _F(2, 3), _F(-1, 12)),
)

_CANONICAL = S_SET[1]


def monic_jacobi(n: int, alpha, beta) -> RatPoly:
    """Monic Jacobi variant on [0, 1]: n!/(n+alpha+beta+1)_n times P_n(2x-1),
    the associated family with the index-zero death rate dropped at c = 0."""
    if n == 0:
        return RatPoly.one()
    return assoc_calV(n, AJParams(alpha, beta, 0))


def _rates_of(params: AJParams, variant: Variant):
    """rates(n) -> (lambda_n, mu_n) of one family, n >= 0.  The parameters go
    over their common denominator d once; each rate is one Fraction of integers."""
    d = math.lcm(*(p.denominator for p in params))
    a, b, c = (p.numerator * (d // p.denominator) for p in params)  # d times alpha, beta, c
    ab, bd, abd = a + b, b + d, a + b + d  # d times alpha + beta, beta + 1, alpha + beta + 1
    drop_mu0 = variant is Variant.CALV

    def rates(n: int):
        nc = n * d + c
        s = 2 * nc + ab  # d times s = 2n + 2c + alpha + beta
        if nc:
            lam_num, lam_den = (nc + bd) * (nc + abd), (s + 2 * d) * (s + d)
        else:  # at n + c = 0 the factor n + c + alpha + beta + 1 is s + 1 and cancels
            lam_num, lam_den = bd, s + 2 * d
        if lam_den == 0:
            raise DomainError("lambda denominator vanishes at index %d" % n)
        lam = Fraction(lam_num, lam_den)
        if n == 0 and drop_mu0:
            return lam, Fraction(0)
        mu_den = s * (s + d)
        if mu_den == 0:
            raise DomainError("mu denominator vanishes at index %d" % n)
        return lam, Fraction(nc * (nc + a), mu_den)

    return rates


def aj_rates(params: AJParams, n: int, variant) -> tuple:
    """Birth and death rates (lambda_n, mu_n) of the associated family."""
    variant = _member(Variant, variant)
    if n < 0:
        raise DomainError("index must be nonnegative")
    return _rates_of(params, variant)(n)


@functools.cache  # per process, append-only and unbounded; filled single-threaded
def _family(params: AJParams, variant: Variant) -> MonicRecurrence:
    return MonicRecurrence(_rates_of(params, variant))


def assoc_V(n: int, params: AJParams) -> RatPoly:
    """Monic associated polynomial V_n, index-zero death rate included."""
    return _family(params, Variant.V).poly(n)


def assoc_calV(n: int, params: AJParams) -> RatPoly:
    """Monic associated polynomial with the index-zero death rate dropped."""
    return _family(params, Variant.CALV).poly(n)


def _explicit_form(n: int, params: AJParams, sums, drop: int = 0, scale: int = 1):
    """Wimp's explicit form, the kernel of every explicit associated form.

    Returns the prefactor pn/pd = (-1)^n (c + 1)_n (b + c + 1)_n /
    ((a + b + 2c + n + 1)_n n!), (a, b) = (alpha, beta), and the
    coefficients of x^0..x^n: power k is pn/pd c_k / ``scale`` times the
    sum, over the integer triples (w, i, j) in ``sums``, of w times

        4F3(k - n, n + k + a + b + 2c + 1, c + b + i, c + j;
            c + b + k + 1, c + k + 1, a + b + 2c + drop; 1),

    c_k = (-n)_k (n + a + b + 2c + 1)_k / ((c + 1)_k (c + b + 1)_k).  Over
    the common denominator d every factor is an integer pair, so each
    coefficient is one Fraction.  The sums of one power must have one
    length (no c + b + i or c + j may end a sum before k - n does): they
    then share the integer core's den.  Each 4F3 is 1 at k = n, so the last
    coefficient, pn/pd c_n sum(w) / scale, is nonzero when sum(w) is."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    d = math.lcm(*(p.denominator for p in params))
    a, b, c = (p.numerator * (d // p.denominator) for p in params)  # d times alpha, beta, c
    s = a + b + 2 * c  # d times alpha + beta + 2c
    pn = pd = 1
    for i in range(1, n + 1):
        pn *= -(c + i * d) * (b + c + i * d)
        pd *= (s + (n + i) * d) * i * d
    if pd == 0:
        raise DomainError("prefactor denominator vanishes at degree %d" % n)
    g = math.gcd(pn, pd)
    pn, pd = pn // g, pd // g
    tails = [(w, c + b + i * d, c + j * d) for w, i, j in sums]
    ckn = ckd = 1  # c_k in lowest terms, from c_{k-1} by its term ratio
    coeffs = []
    for k in range(n + 1):
        dens = (b + c + (k + 1) * d, c + (k + 1) * d, s + drop * d)
        num = 0
        for w, e, f in tails:
            fn, den = _pfq_int(((k - n) * d, s + (n + k + 1) * d, e, f), dens, d, 1, 1)
            num += w * fn
        if k:
            cden = (c + k * d) * (c + b + k * d)
            if cden == 0:
                raise DomainError("coefficient denominator vanishes at power %d" % k)
            ckn *= (k - 1 - n) * (s + (n + k) * d) * d
            ckd *= cden
            g = math.gcd(ckn, ckd)
            ckn, ckd = ckn // g, ckd // g
        coeffs.append(Fraction(pn * ckn * num, pd * ckd * den * scale))
    return pn, pd, coeffs


def wimp_V_explicit(n: int, params: AJParams) -> RatPoly:
    """Explicit double-sum form of assoc_V: one terminating 4F3 per power of x."""
    return RatPoly(_explicit_form(n, params, ((1, 0, 0),))[2])


def im_calV_explicit(n: int, params: AJParams) -> RatPoly:
    """Explicit double-sum form of assoc_calV.

    Same outer structure as wimp_V_explicit; two inner parameters move up
    by one, which is exactly what dropping the index-zero death rate does
    to the series.
    """
    return RatPoly(_explicit_form(n, params, ((1, 1, 0),), drop=1)[2])


REP1_DEFAULT_COEFF = _F(455, 3456)

_REP1_SHIFT = _F(5, 12)
_REP1_SHIFTED = AJParams(_CANONICAL.alpha, _CANONICAL.beta, _CANONICAL.c + 1)

# (triple, s, q) of Rep2 and Rep3: (x - s) V_n - q calV_n at the triple
_REP_STEPS = {
    Representation.REP2: (S_SET[2], _F(8), _F(-91, 12)),
    Representation.REP3: (_CANONICAL, _F(0), _F(5, 12)),
}


def atkin_via_representation(n: int, which, rep1_coeff=None) -> RatPoly:
    """Degree-(n+1) monic polynomial from one of the three representations.

    All three are intended to reproduce the normalized Atkin polynomial
    of degree n+1.  The first one is (x - 5/12) V_n minus a scalar times
    V_{n-1} at shifted c+1 (zero at n = 0); the default 455/3456 is forced
    by the n = 1 constant term (the value 91/384 that also circulates
    fails there, which is why the scalar stays configurable).
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    which = _member(Representation, which)
    if which is Representation.REP1:
        kappa = REP1_DEFAULT_COEFF if rep1_coeff is None else _F(rep1_coeff)
        v = _family(_CANONICAL, Variant.V).poly(n)
        shifted = _family(_REP1_SHIFTED, Variant.V).poly(n - 1) if n else RatPoly()
        return _recur(v, _REP1_SHIFT, shifted, kappa)
    if rep1_coeff is not None:
        raise DomainError("rep1_coeff only applies to the first representation")
    params, s, q = _REP_STEPS[which]
    return _recur(_family(params, Variant.V).poly(n), s, _family(params, Variant.CALV).poly(n), q)


def ourrep_explicit(n: int) -> RatPoly:
    """Explicit hypergeometric form of the normalized Atkin polynomial of
    degree n+1.

    It is Wimp's form at S_SET[1] with the last two 4F3 numerator
    parameters shifted: the power-(k+1) coefficient weighs the sums at
    (c + beta + 1, c - 1) by 6/5 and at (c + beta, c - 1) by -1/5.  The
    constant term is a terminating 3F2 carrying an overall factor -5/12;
    dropping the -5/12 already breaks the n = 0 case, whose value must be
    x - 5/12.
    """
    pn, pd, coeffs = _explicit_form(n, _CANONICAL, ((6, 1, -1), (-1, 0, -1)), scale=5)
    # 3F2(-n, n + 2, 7/12; 19/12, 2; 1), over 12
    fn, fd = _pfq_int((-12 * n, 12 * n + 24, 7), (19, 24), 12, 1, 1)
    return RatPoly([Fraction(-5 * pn * fn, 12 * pd * fd)] + coeffs)
