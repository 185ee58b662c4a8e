"""Exact polynomial layer plus the mod-p structures it reduces into."""

import random
import re
from fractions import Fraction as F
from math import gcd

import pytest

from atkinpoly.errors import DomainError
from atkinpoly.fp import FpPoly, fp_divmod, fp_gcd
from atkinpoly.ratpoly import RatPoly, poly_eval, reduce_mod_p


def test_constructors_and_degree():
    assert RatPoly().coeffs == ()
    assert RatPoly().degree() == -1
    assert RatPoly.one() == RatPoly((1,))
    assert RatPoly((1,)) != 1  # a value type: equal only to another RatPoly
    assert RatPoly((0, 1)).degree() == 1
    # trailing zeros are trimmed, so the last coefficient is the leading one
    assert RatPoly((1, 2, 0, 0)) == RatPoly((1, 2))
    assert RatPoly((0, 0, 3, 0)).coeffs[-1] == 3
    assert RatPoly((0, 0)).coeffs == ()


def test_ratpoly_is_a_value_type_without_arithmetic():
    # exact arithmetic lives in the integer kernels; RatPoly only holds values
    p = RatPoly((F(1, 2), -3, 2))
    for op in (lambda: p + p, lambda: p - 1, lambda: 2 * p, lambda: p * p, lambda: -p):
        with pytest.raises(TypeError):
            op()
    for name in ("coefficient", "is_zero"):
        assert not hasattr(p, name)
    # equal values hash alike, so RatPolys key dicts and sets
    q = RatPoly((F(2, 4), F(-6, 2), 2, 0))
    assert q == p and hash(q) == hash(p)
    assert len({p, q, RatPoly()}) == 2


def test_poly_eval_horner_matches_power_sum():
    p = RatPoly((F(1, 3), -2, 0, F(5, 7)))
    x = F(9, 4)
    expected = sum(c * x**k for k, c in enumerate(p.coeffs))
    assert poly_eval(p, x) == expected


def _horner_reference(p, x):
    """Horner in Fractions, one operation at a time: the oracle for the
    integer Horner of poly_eval."""
    x = F(x)
    out = F(0)
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def test_poly_eval_matches_fraction_horner():
    rng = random.Random(16)
    polys = [RatPoly(), RatPoly((F(-3, 11),)), RatPoly((0, 0, 0, 1))]
    for _ in range(40):
        deg = rng.randint(0, 12)
        dens = (1, rng.randint(1, 9), rng.randint(1, 10**30))
        polys.append(RatPoly([F(rng.randint(-10**6, 10**6), rng.choice(dens)) for _ in range(deg + 1)]))
    points = [0, 1, -1, 1728, -7, -2.5, F(1, 2), F(-3, 7), F(10**25 + 1, 10**30 - 7), F(-(10**40), 3**50)]
    points += [F(rng.randint(-10**9, 10**9), rng.randint(1, 10**20)) for _ in range(10)]
    for p in polys:
        for x in points:
            value = poly_eval(p, x)
            assert type(value) is F
            assert value == _horner_reference(p, x), (p, x)
    assert poly_eval(RatPoly(), F(5, 3)) == 0


def test_reduce_mod_p():
    p = RatPoly((F(1, 2), 3, 1))
    r = reduce_mod_p(p, 5)
    # 1/2 = 3 mod 5
    assert r == FpPoly(5, (3, 3, 1))
    with pytest.raises(DomainError, match="^coefficient 1/5 has denominator divisible by 5$"):
        reduce_mod_p(RatPoly((F(1, 5), 1)), 5)


def _reduce_mod_p_reference(p, prime):
    """One Fermat inverse per coefficient: the oracle for the single
    inverse of the common denominator in reduce_mod_p."""
    out = []
    for c in p.coeffs:
        if c.denominator % prime == 0:
            raise DomainError("coefficient %s has denominator divisible by %d" % (c, prime))
        out.append(c.numerator * pow(c.denominator, prime - 2, prime) % prime)
    return FpPoly(prime, out)


def test_reduce_mod_p_matches_the_per_coefficient_reduction():
    rng = random.Random(25)
    refused = 0
    for case in range(300):
        prime = rng.choice((2, 3, 5, 7, 13, 883, 1000003))
        deg = rng.randint(-1, 12)
        dens = (1, rng.randint(1, 50), rng.randint(1, 10**30))
        if case % 3 == 0:
            dens += (prime * rng.randint(1, 9),)
        p = RatPoly([F(rng.randint(-(10**12), 10**12), rng.choice(dens)) for _ in range(deg + 1)])
        try:
            expected = _reduce_mod_p_reference(p, prime)
        except DomainError as exc:
            refused += 1
            with pytest.raises(DomainError, match="^%s$" % re.escape(str(exc))):
                reduce_mod_p(p, prime)
        else:
            assert reduce_mod_p(p, prime) == expected, (p, prime)
    assert 60 <= refused <= 240


@pytest.mark.parametrize("modulus", (0, 1, 4, -7))
def test_reduce_mod_p_refuses_a_modulus_that_is_not_prime(modulus):
    # Fermat's inverse needs a prime: at 4 it would send x + 1/3 to x + 1
    with pytest.raises(DomainError, match="^p must be prime, got %s$" % re.escape(repr(modulus))):
        reduce_mod_p(RatPoly((F(1, 3), 1)), modulus)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    given = None


def _check_canonical_form(cs, other, k):
    trimmed = list(cs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    p = RatPoly(cs)
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == tuple(trimmed)
    # an unreduced integer form gives the same value, coefficients included
    q = RatPoly._reduced([k * c for c in p.nums], k * p.den)
    assert q == p and hash(q) == hash(p) and q.coeffs == p.coeffs
    o = RatPoly(other)
    assert (o == p) == (o.coeffs == p.coeffs)
    if o == p:
        assert hash(o) == hash(p)


if given is None:

    def test_canonical_form_of_random_coefficients():
        pytest.skip("hypothesis is not installed")

else:
    _COEFFS = st.lists(st.one_of(st.just(F(0)), st.fractions(max_denominator=10**15)), max_size=8)

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(_COEFFS, _COEFFS, st.integers(0, 3), st.integers(1, 10**20), st.booleans())
    def test_canonical_form_of_random_coefficients(cs, other, pad, k, same):
        # other is cs with zeros appended, or an independent draw
        _check_canonical_form(cs, cs + [F(0)] * pad if same else other, k)


def test_fp_poly_basics():
    f = FpPoly(7, (8, 1))  # coefficients reduced mod 7
    assert f == FpPoly(7, (1, 1))
    assert hash(f) == hash(FpPoly(7, (1, 1)))
    assert FpPoly(7, (0, 0)).is_zero()
    assert FpPoly(5, (1, 0, 3)).derivative() == FpPoly(5, (0, 1))
    assert FpPoly(5, (1, 2)).monic() == FpPoly(5, (3, 1))


def test_fp_divmod_invariant():
    rng = random.Random(1)
    p = 11
    for _ in range(20):
        f = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 7))))
        g = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 5))))
        if g.is_zero():
            continue
        q, r = fp_divmod(f, g)
        assert r.degree() < g.degree() or r.is_zero()
        # rebuild f = q*g + r by schoolbook multiplication
        prod = [0] * (len(q.coeffs) + len(g.coeffs))
        for i, qi in enumerate(q.coeffs):
            for j, gj in enumerate(g.coeffs):
                prod[i + j] = (prod[i + j] + qi * gj) % p
        rebuilt = [0] * max(len(prod), len(r.coeffs))
        for i, v in enumerate(prod):
            rebuilt[i] = v
        for i, v in enumerate(r.coeffs):
            rebuilt[i] = (rebuilt[i] + v) % p
        assert FpPoly(p, tuple(rebuilt)) == f


def test_fp_gcd_known_factor():
    p = 13
    # (x+1)(x+2) and (x+1)(x+5) share exactly x+1
    f = FpPoly(p, (2, 3, 1))
    g = FpPoly(p, (5, 6, 1))
    assert fp_gcd(f, g) == FpPoly(p, (1, 1))
