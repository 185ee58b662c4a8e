"""The fraction-free recurrence engine against the RatPoly-product loop
it replaced, and the runtime guard on the normalized Atkin family."""

import importlib
import random
from fractions import Fraction as F
from math import lcm

import pytest

from atkinpoly.assoc_jacobi import S_SET, Variant, _vrec_prod, _vrec_shift, aj_rates, assoc_calV, assoc_V
from atkinpoly.atkin import atkin, atkin_normalized, kz_explicit
from atkinpoly.errors import DomainError, InternalInconsistency
from atkinpoly.ratpoly import MonicRecurrence, RatPoly

# the package namespace binds the name atkin to the function
atkin_module = importlib.import_module("atkinpoly.atkin")


def _fraction_loop(seeds, shift, prod, n):
    """Members 0..n of P_{m+1} = (x - shift(m)) P_m - prod(m) P_{m-1},
    one RatPoly product per step: the oracle for MonicRecurrence."""
    polys = list(seeds)
    while len(polys) <= n:
        m = len(polys) - 1
        polys.append(RatPoly((-shift(m), 1)) * polys[m] - prod(m) * polys[m - 1])
    return polys


def test_engine_builds_monic_legendre():
    # monic Legendre: shift 0, prod m^2 / (4m^2 - 1)
    legendre = MonicRecurrence((RatPoly.one(), RatPoly.x()), lambda m: 0, lambda m: F(m * m, 4 * m * m - 1))
    assert legendre.poly(3) == RatPoly((0, F(-3, 5), 0, 1))
    assert legendre.poly(4) == RatPoly((F(3, 35), 0, F(-6, 7), 0, 1))
    assert len(legendre) == 5
    assert legendre.poly(2) == RatPoly((F(-1, 3), 0, 1))
    with pytest.raises(DomainError):
        legendre.poly(-1)


def test_members_on_request_in_any_order():
    canon = S_SET[1]
    lam0, mu0 = aj_rates(canon, 0, Variant.V)
    families = (
        (atkin_module._SEEDS_ORIGINAL, atkin_module._orig_shift, atkin_module._orig_prod),
        (
            (RatPoly.one(), RatPoly((-(lam0 + mu0), 1))),
            lambda m: _vrec_shift(canon, m),
            lambda m: _vrec_prod(canon, m),
        ),
    )
    rng = random.Random(6)
    for seeds, shift, prod in families:
        oracle = _fraction_loop(seeds, shift, prod, 40)
        engine = MonicRecurrence(seeds, shift, prod)
        order = list(range(41))
        rng.shuffle(order)
        generated = len(seeds)
        for n in order:
            p = engine.poly(n)
            assert p == oracle[n]
            assert engine.poly(n) == p  # a repeated request gives the same member
            generated = max(generated, n + 1)
            assert len(engine) == generated
            # the integer member: numerators over the least common denominator
            nums, den = engine.member(n)
            assert den == lcm(*(c.denominator for c in p.coeffs))
            assert [F(c, den) for c in nums] == list(p.coeffs)


def test_original_scale_matches_fraction_loop():
    oracle = _fraction_loop(
        atkin_module._SEEDS_ORIGINAL, atkin_module._orig_shift, atkin_module._orig_prod, 120
    )
    for n, expected in enumerate(oracle):
        assert atkin(n) == expected


def test_normalized_scale_matches_fraction_loop():
    oracle = _fraction_loop(
        atkin_module._SEEDS_NORMALIZED, atkin_module._norm_shift, atkin_module._norm_prod, 60
    )
    for n, expected in enumerate(oracle):
        assert atkin_normalized(n) == expected


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


def test_rescale_guard_fires_on_a_corrupted_recurrence(monkeypatch):
    def corrupted_prod(m):
        # wrong at one index: degree 6 and everything above it change
        return atkin_module._norm_prod(m) + (F(1, 10**6) if m == 5 else 0)

    with monkeypatch.context() as mp:
        mp.setattr(
            atkin_module,
            "_NORMALIZED",
            MonicRecurrence(atkin_module._SEEDS_NORMALIZED, atkin_module._norm_shift, corrupted_prod),
        )
        mp.setattr(atkin_module, "_verified_to", 2)
        atkin_normalized(5)  # below the corrupted degree: still verified
        with pytest.raises(InternalInconsistency, match="degree 6"):
            atkin_normalized(9)
    # the caches and the verified degree are back
    assert atkin_normalized(9) == kz_explicit(9)


def test_rescale_guard_fires_on_a_corrupted_shift(monkeypatch):
    def corrupted_shift(m):
        # wrong at one index: degree 12 and everything above it change
        return atkin_module._norm_shift(m) + (F(1, 10**9) if m == 11 else 0)

    with monkeypatch.context() as mp:
        mp.setattr(
            atkin_module,
            "_NORMALIZED",
            MonicRecurrence(atkin_module._SEEDS_NORMALIZED, corrupted_shift, atkin_module._norm_prod),
        )
        mp.setattr(atkin_module, "_verified_to", 2)
        assert atkin_normalized(11) == kz_explicit(11)
        with pytest.raises(InternalInconsistency, match="degree 12"):
            atkin_normalized(30)
    assert atkin_normalized(30) == kz_explicit(30)
