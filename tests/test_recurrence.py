"""The fraction-free recurrence engine and its integer step against
schoolbook Fraction arithmetic, the Atkin family on both scales against
its multiplied-out recurrence, and the associated families against their
hand-simplified coefficients."""

import importlib
import random
import re
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from atkinpoly.assoc_jacobi import S_SET, AJParams, Variant, aj_rates, assoc_calV, assoc_V
from atkinpoly.atkin import atkin, atkin_normalized, atkin_rates
from atkinpoly.cli import MAX_EXACT_DEGREE
from atkinpoly.errors import DomainError
from atkinpoly.hypergeom import atkin_normalized_value_seq
from atkinpoly.ratpoly import MonicRecurrence, RatPoly, _recur
from schoolbook import combine, compose

# the message of a pole of a birth or death rate at an index
_RATE_POLE = r"^(lambda|mu) denominator vanishes at index %d$"

# the package namespace binds the name atkin to the function
atkin_module = importlib.import_module("atkinpoly.atkin")


# The original-scale recurrence with lambda_m + mu_m and lambda_{m-1} mu_m
# multiplied out, valid for index m >= 2, and its first three members:
# the second route to the rates that atkin steps with.
def _orig_shift(m):
    return F(24 * (144 * m * m - 29), (2 * m + 1) * (2 * m - 1))


def _orig_prod(m):
    return F(
        36 * (12 * m - 13) * (12 * m - 7) * (12 * m - 5) * (12 * m + 1),
        m * (m - 1) * (2 * m - 1) ** 2,
    )


_SEEDS_ORIGINAL = (
    RatPoly((1,)),
    RatPoly((-720, 1)),
    RatPoly((269280, -1640, 1)),
)

# The normalized family A_n(1728 y)/1728^n by its own recurrence, whose
# coefficients are those of the original scale over 1728 and 1728^2:
# the second route to atkin_normalized, which reads A_n instead.
_SEEDS_NORMALIZED = (
    RatPoly((1,)),
    RatPoly((F(-5, 12), 1)),
    RatPoly((F(935, 10368), F(-205, 216), 1)),
)


def _norm_shift(m):
    return _orig_shift(m) / 1728


def _norm_prod(m):
    return _orig_prod(m) / (1728 * 1728)


# The associated families' recurrence with lambda_m + mu_m and
# lambda_{m-1} mu_m multiplied out, s = 2m + 2c + alpha + beta: the
# second route to the rates that assoc_V and assoc_calV step with.
def _vrec_shift(params, m):
    a, b, c = params.alpha, params.beta, params.c
    s = 2 * m + 2 * c + a + b
    return (s * (s + 2) - (a * a - b * b)) / (2 * s * (s + 2))


def _vrec_prod(params, m):
    a, b, c = params.alpha, params.beta, params.c
    s = 2 * m + 2 * c + a + b
    return (m + c) * (m + c + a) * (m + c + b) * (m + c + a + b) / ((s - 1) * s * s * (s + 1))


def _first_degenerate_index(params, nmax):
    """First index m in 1..nmax-1 at which a denominator of the
    multiplied-out recurrence, (s - 1) s (s + 1) (s + 2), vanishes."""
    a, b, c = params.alpha, params.beta, params.c
    for m in range(1, nmax):
        s = 2 * m + 2 * c + a + b
        if (s - 1) * s * (s + 1) * (s + 2) == 0:
            return m
    return None


def _fraction_loop(seeds, shift, prod, n):
    """Members 0..n of P_{m+1} = (x - shift(m)) P_m - prod(m) P_{m-1},
    one schoolbook step at a time: the oracle for MonicRecurrence."""
    polys = list(seeds)
    while len(polys) <= n:
        m = len(polys) - 1
        polys.append(combine(1, -shift(m), polys[m], -prod(m), polys[m - 1]))
    return polys


def test_engine_builds_monic_legendre():
    # birth and death rates of the Legendre family on [0, 2]: shift 1,
    # product m^2 / (4m^2 - 1); P_n(x + 1) is the monic Legendre polynomial
    legendre = MonicRecurrence(lambda m: (F(m + 1, 2 * m + 1), F(m, 2 * m + 1)))
    assert compose(legendre.poly(3), 1, 1) == RatPoly((0, F(-3, 5), 0, 1))
    assert compose(legendre.poly(4), 1, 1) == RatPoly((F(3, 35), 0, F(-6, 7), 0, 1))
    assert len(legendre._members) == 5  # members past the one asked for are not built
    assert compose(legendre.poly(2), 1, 1) == RatPoly((F(-1, 3), 0, 1))
    with pytest.raises(DomainError):
        legendre.poly(-1)


def _random_member(rng, length):
    """A member as the engines hold it: integer numerators with a nonzero
    last entry over their least common denominator; length 0 is the zero
    member."""
    if length == 0:
        return RatPoly._reduced((), 1)
    nums = [rng.randint(-(10**6), 10**6) for _ in range(length - 1)]
    nums.append(rng.choice((-1, 1)) * rng.randint(1, 10**6))
    den = rng.choice((1, rng.randint(1, 1000), rng.randint(1, 10**20)))
    g = gcd(den, *nums)
    return RatPoly._reduced(tuple(c // g for c in nums), den // g)


def _as_poly(member):
    return RatPoly([F(c, member.den) for c in member.nums])


def test_step_kernel_matches_the_schoolbook_step():
    # the shapes the package steps: R one shorter than P (the recurrence),
    # as long as P (Rep2, Rep3) or the zero member (Rep1 at n = 0); q = 0
    # (the Rep1 diagnostic) and integer s (Rep2, Rep3) as Fractions
    rng = random.Random(19)
    for case in range(240):
        length = rng.randint(1, 12)
        p = _random_member(rng, length)
        r = _random_member(rng, (length - 1, length, 0)[case % 3])
        s = F(rng.randint(-50, 50), rng.choice((1, rng.randint(1, 10**9))))
        if case % 5 == 0:
            s = F(rng.randint(-9, 9))
        q = F(0) if case % 4 == 0 else F(rng.randint(-50, 50), rng.randint(1, 10**9))
        step = _recur(p, s, r, q)
        nums, den = step.nums, step.den
        assert den > 0 and gcd(den, *nums) == 1
        assert len(nums) == length + 1 and nums[-1] != 0
        assert _as_poly(step) == combine(1, -s, _as_poly(p), -q, _as_poly(r))
        assert step.coeffs == _as_poly(step).coeffs


def test_member_to_poly_conversion():
    assert RatPoly._reduced((), 1) == RatPoly()
    assert RatPoly._reduced((3, -6, 4), 4) == RatPoly((F(3, 4), F(-3, 2), 1))
    # a member not reduced by its gcd gives the same value
    assert RatPoly._reduced((6, -12, 8), 8) == RatPoly._reduced((3, -6, 4), 4)
    legendre = MonicRecurrence(lambda m: (F(m + 1, 2 * m + 1), F(m, 2 * m + 1)))
    for n in range(6):
        p = legendre.poly(n)
        assert RatPoly._reduced(p.nums, p.den) == p


def test_members_on_request_in_any_order():
    canon = S_SET[1]
    lam0, mu0 = aj_rates(canon, 0, Variant.V)
    families = (
        (
            (_SEEDS_ORIGINAL, _orig_shift, _orig_prod),
            lambda m: (1728 * F(5, 12), 0) if m == 0 else [1728 * r for r in atkin_rates(m)],
        ),
        (
            (
                (RatPoly.one(), RatPoly((-(lam0 + mu0), 1))),
                lambda m: _vrec_shift(canon, m),
                lambda m: _vrec_prod(canon, m),
            ),
            lambda m: aj_rates(canon, m, Variant.V),
        ),
    )
    rng = random.Random(6)
    for (seeds, shift, prod), rates in families:
        oracle = _fraction_loop(seeds, shift, prod, 40)
        engine = MonicRecurrence(rates)
        order = list(range(41))
        rng.shuffle(order)
        generated = 2  # P_0 and P_1 are built with the engine
        for n in order:
            p = engine.poly(n)
            assert p == oracle[n]
            assert engine.poly(n) == p  # a repeated request gives the same member
            generated = max(generated, n + 1)
            assert len(engine._members) == generated
            # the integer member: numerators over the least common denominator
            nums, den = p.nums, p.den
            assert den == lcm(*(c.denominator for c in p.coeffs))
            assert [F(c, den) for c in nums] == list(p.coeffs)


def test_a_raising_rate_raises_again_and_keeps_the_members_before_it():
    asked = []

    def rates(m):
        asked.append(m)
        if m == 3:
            raise DomainError("pole at index 3")
        return F(m + 1, 2 * m + 1), F(m, 2 * m + 1)

    engine = MonicRecurrence(rates)
    before = [engine.poly(n) for n in range(4)]
    for n in (4, 7, 4):
        with pytest.raises(DomainError, match="^pole at index 3$"):
            engine.poly(n)
        assert len(engine._members) == 4
    assert [engine.poly(n) for n in range(4)] == before
    assert asked == [0, 1, 2, 3, 3, 3]  # each index once until one raises


def test_original_scale_matches_fraction_loop():
    oracle = _fraction_loop(_SEEDS_ORIGINAL, _orig_shift, _orig_prod, 120)
    for n, expected in enumerate(oracle):
        assert atkin(n) == expected


def test_normalized_scale_matches_fraction_loop():
    oracle = _fraction_loop(_SEEDS_NORMALIZED, _norm_shift, _norm_prod, 60)
    for n, expected in enumerate(oracle):
        assert atkin_normalized(n) == expected


def test_normalized_scale_matches_its_recurrence_past_the_cli_cap():
    # the normalized rates multiply out to the normalized recurrence, and
    # the engine on them reproduces the members read off A_n
    for m in range(2, MAX_EXACT_DEGREE + 2):
        lam, mu = atkin_rates(m)
        assert lam + mu == _norm_shift(m)
        assert atkin_rates(m - 1)[0] * mu == _norm_prod(m)
    engine = MonicRecurrence(atkin_module._rates)
    for n in range(MAX_EXACT_DEGREE + 2):
        assert atkin_normalized(n).coeffs == engine.poly(n).coeffs


def _normalized_value_seq(nmax, x):
    """Float values at x of the normalized family, degrees 0..nmax >= 2,
    by the recurrence above in doubles."""
    out = [1.0, x - 5.0 / 12.0, x * x - float(F(205, 216)) * x + float(F(935, 10368))]
    for m in range(2, nmax):
        out.append((x - float(_norm_shift(m))) * out[m] - float(_norm_prod(m)) * out[m - 1])
    return out


@pytest.mark.parametrize("x", (0.1, 0.5, 0.999))
def test_value_recurrence_is_bit_identical_to_the_normalized_one(x):
    # past degree 537 the values underflow to 0.0 at x = 0.5 and 0.999
    got = atkin_normalized_value_seq(600, x)
    assert [v.hex() for v in got] == [v.hex() for v in _normalized_value_seq(600, x)]


@pytest.mark.parametrize("params", S_SET)
@pytest.mark.parametrize("variant", (Variant.V, Variant.CALV))
def test_associated_families_match_fraction_loop(params, variant):
    lam0, mu0 = aj_rates(params, 0, variant)
    oracle = _fraction_loop(
        (RatPoly.one(), RatPoly((-(lam0 + mu0), 1))),
        lambda m: _vrec_shift(params, m),
        lambda m: _vrec_prod(params, m),
        20,
    )
    member = assoc_V if variant is Variant.V else assoc_calV
    for n, expected in enumerate(oracle):
        assert member(n, params) == expected


def test_rates_multiply_out_to_the_simplified_recurrence():
    # lambda_m + mu_m and lambda_{m-1} mu_m at indices where no
    # denominator vanishes, for the S triples and a grid of others
    triples = list(S_SET) + [
        AJParams(F(a, 4), F(b, 3), F(c, 6)) for a in (-3, 1, 5) for b in (-2, 1) for c in (-5, 1, 7)
    ]
    for params in triples:
        if _first_degenerate_index(params, 30) is not None:
            continue
        for m in range(1, 30):
            lam, mu = aj_rates(params, m, Variant.V)
            assert lam + mu == _vrec_shift(params, m)
            assert aj_rates(params, m - 1, Variant.V)[0] * mu == _vrec_prod(params, m)


def _degenerate_grid():
    # alpha + beta + 2c at a negative integer, or a third or a half above one
    out = []
    for total in [k + d for k in range(-24, 2) for d in (F(0), F(1, 3), F(1, 2))]:
        for a in (F(0), F(1, 2), F(-2, 3)):
            for b in (F(0), F(1, 3)):
                out.append(AJParams(a, b, (total - a - b) / 2))
    return out


@pytest.mark.parametrize("variant", (Variant.V, Variant.CALV))
def test_families_fail_at_the_first_degenerate_index(variant):
    """The old precheck over the multiplied-out denominators is the
    oracle of the first index at which a family raises."""
    member = assoc_V if variant is Variant.V else assoc_calV
    failing = set()
    for params in _degenerate_grid():
        try:
            aj_rates(params, 0, variant)
        except DomainError as exc:
            assert re.match(_RATE_POLE % 0, str(exc)), exc
            # the seed itself is undefined: every member raises
            with pytest.raises(DomainError, match=_RATE_POLE % 0):
                member(0, params)
            continue
        expected = _first_degenerate_index(params, 12)
        for n in (5, 12, 1, 12):
            if expected is None or n <= expected:
                assert member(n, params).degree() == n
            else:
                failing.add(expected)
                with pytest.raises(DomainError, match=_RATE_POLE % expected):
                    member(n, params)
    assert failing == set(range(1, 12))


def _v_rates_at_s1(m):
    """Oracle: (lambda_m, mu_m) of V at (alpha, beta, c) = (1/2, -2/3, 7/12),
    from the textbook rates in Fractions; m + c never vanishes there."""
    alpha, beta, c = F(1, 2), F(-2, 3), F(7, 12)
    s = 2 * m + 2 * c + alpha + beta
    lam = (m + c + beta + 1) * (m + c + alpha + beta + 1) / ((s + 2) * (s + 1))
    mu = (m + c) * (m + c + alpha) / (s * (s + 1))
    return lam, mu


def test_atkin_rates_are_the_associated_rates_one_index_down():
    assert S_SET[1] == (F(1, 2), F(-2, 3), F(7, 12))
    for n in range(1, 201):
        assert atkin_rates(n) == _v_rates_at_s1(n - 1)
