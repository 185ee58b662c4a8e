"""Generating functions: the algebraic substitution, the summation
identity, the two solution-family series, and the Catalan-weighted series
with its endpoint specializations."""

import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from atkinpoly.assoc_jacobi import S_SET, AJParams
from atkinpoly.atkin import atkin_at_one, atkin_at_zero
from atkinpoly.errors import DomainError
from atkinpoly.exact import catalan, pochhammer
from atkinpoly.genfun import (
    catalan_gen_check,
    delta_eps,
    fjk_check,
    gen_at_one,
    gen_at_zero,
    gen_uy_check,
    gen_zero_pfaff_residual,
)
from atkinpoly.hypergeom import f21_real, u_and_y_seq

CANON = S_SET[1]


def test_delta_eps_algebraic_relations():
    rng = random.Random(0)
    for _ in range(25):
        t = rng.uniform(0.05, 0.95)
        x = rng.uniform(0.05, 0.95)
        de = delta_eps(t, x)
        # both roots of t z^2 - (1+t) z + x
        for z in (de.delta, de.epsilon):
            assert abs(t * z * z - (1 + t) * z + x) <= 1e-12
        assert abs(de.delta * de.epsilon - x / t) <= 1e-12 * (x / t)
        # delta is the root that stays inside (0, 1)
        assert 0.0 < de.delta < 1.0
        assert de.epsilon > 1.0


def test_delta_eps_small_t_limit():
    de = delta_eps(1e-9, 0.4)
    assert abs(de.delta - 0.4) <= 1e-8


def test_delta_eps_domain():
    with pytest.raises(DomainError):
        delta_eps(0.0, 0.4)
    with pytest.raises(DomainError, match=r"^discriminant negative at t=0\.5, x=1\.2$"):
        delta_eps(0.5, 1.2)


def test_fjk_identity_at_reference_point():
    lhs, rhs = fjk_check(0.3, 1.1, 0.9, 0.25, 0.2, 60)
    assert abs(lhs - rhs) <= 1e-10


def test_fjk_truncation_error_decreases():
    args = (0.3, 1.1, 0.9, 0.25, 0.2)
    res = {}
    for N in (10, 60):
        lhs, rhs = fjk_check(*args, N)
        res[N] = abs(lhs - rhs)
    # deeper truncation can only help, up to the float floor
    assert res[60] <= res[10] + 1e-12
    assert res[60] <= 1e-10


def test_fjk_degenerate_t():
    lhs, rhs = fjk_check(0.3, 1.1, 0.9, 0.25, 0.0, 10)
    direct = f21_real(-0.3, 1.1, 0.9, 0.25).value
    assert lhs == rhs
    assert abs(lhs - direct) <= 1e-12


def test_uy_generating_functions():
    for x, t in ((0.25, 0.2), (0.6, 0.1)):
        r = gen_uy_check(CANON, x, t, 50)
        assert abs(r.u_partial_sum - r.u_closed_form) <= 1e-10
        assert abs(r.y_partial_sum - r.y_closed_form) <= 1e-10


def test_uy_generating_functions_at_t_zero_are_the_first_pair():
    for x in (0.2, 0.5, 0.8):
        r = gen_uy_check(CANON, x, 0.0, 5)
        (u0,), (y0,) = u_and_y_seq(CANON, x, 0)
        assert r.u_partial_sum == r.u_closed_form
        assert r.y_partial_sum == r.y_closed_form
        assert abs(r.u_closed_form - u0.value) <= u0.abs_error_estimate
        assert abs(r.y_closed_form - y0.value) <= y0.abs_error_estimate


def test_uy_series_coefficient_shape():
    """The shared series coefficient is a ratio of rising factorials; spot
    check that truncating one term earlier moves the sum by exactly the
    dropped term's size."""
    x, t, N = 0.3, 0.15, 30
    full = gen_uy_check(CANON, x, t, N)
    one_less = gen_uy_check(CANON, x, t, N - 1)
    assert abs(full.u_closed_form - one_less.u_closed_form) == 0.0
    assert abs(full.u_partial_sum - one_less.u_partial_sum) <= abs(t) ** (N - 1)


def test_catalan_weighted_generating_function():
    for x, t in ((0.3, 0.2), (0.7, 0.1)):
        lhs, rhs = catalan_gen_check(x, t, 50)
        assert abs(lhs - rhs) <= 1e-8


def test_catalan_truncation_regime():
    # with the horizon in the truncation-dominated range the residual
    # falls by far more than two orders of magnitude
    r5 = abs(catalan_gen_check(0.3, 0.2, 5)[0] - catalan_gen_check(0.3, 0.2, 5)[1])
    r12 = abs(catalan_gen_check(0.3, 0.2, 12)[0] - catalan_gen_check(0.3, 0.2, 12)[1])
    assert r12 > 1e-12  # still above the float floor
    assert r5 / r12 >= 100.0


def test_catalan_degenerate_t():
    lhs, rhs = catalan_gen_check(0.35, 0.0, 5)
    # at t = 0 the substitution collapses and both sides are x - 5/12
    assert abs(lhs - (0.35 - 5.0 / 12.0)) <= 1e-15
    assert abs(rhs - (0.35 - 5.0 / 12.0)) <= 1e-12


def test_endpoint_series_zero():
    lhs, rhs = gen_at_zero(0.15, 40)
    assert abs(lhs - rhs) <= 1e-10
    with pytest.raises(DomainError):
        gen_at_zero(1.0, 10)


def test_endpoint_series_one():
    lhs, rhs = gen_at_one(0.15, 40)
    assert abs(lhs - rhs) <= 1e-10


def test_catalan_horizon_is_the_last_that_fits_a_double():
    top = 518
    float(catalan(top + 1))
    with pytest.raises(OverflowError):
        float(catalan(top + 2))
    for fn, args in ((gen_at_zero, (0.3,)), (gen_at_one, (0.3,)), (catalan_gen_check, (0.5, 0.3))):
        lhs, rhs = fn(*args, top)
        assert math.isfinite(lhs) and abs(lhs - rhs) <= 1e-8
        with pytest.raises(DomainError):
            fn(*args, top + 1)


def test_fjk_and_uy_stop_at_the_float_horizon():
    # the scaled recurrence values overflow a double near n = 514
    a, b, c = float(CANON.alpha), float(CANON.beta), float(CANON.c)
    sums = []
    for N in (60, 500):
        lhs, rhs = fjk_check(a, b, c, 0.5, 0.3, N)
        r = gen_uy_check(CANON, 0.5, 0.3, N)
        for partial, closed in ((lhs, rhs), (r.u_partial_sum, r.u_closed_form), (r.y_partial_sum, r.y_closed_form)):
            assert math.isfinite(partial) and abs(partial - closed) <= 1e-8
        sums.append((lhs, r.u_partial_sum, r.y_partial_sum))
    # the terms past n = 60 are below the rounding of the sum
    assert sums[0] == pytest.approx(sums[1], rel=1e-12)
    with pytest.raises(DomainError, match="the last horizon whose terms fit a double"):
        fjk_check(a, b, c, 0.5, 0.3, 1000)
    with pytest.raises(DomainError, match="the last horizon whose terms fit a double"):
        gen_uy_check(CANON, 0.5, 0.3, 1000)


def test_float_horizon_is_refused_before_the_values_are_built():
    # the scale factor or the Catalan weight alone is enough to name the
    # horizon, so a huge N costs no more memory than the horizon itself
    a, b, c = float(CANON.alpha), float(CANON.beta), float(CANON.c)
    for check, args, horizon in (
        (fjk_check, (a, b, c, 0.5, 0.3), 513),
        (gen_uy_check, (CANON, 0.5, 0.3), 514),
        (gen_at_zero, (0.3,), 518),
        (gen_at_one, (0.3,), 518),
        (catalan_gen_check, (0.5, 0.3), 518),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="N = 100000 is past %d, the last horizon" % horizon):
                check(*args, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (check.__name__, peak)


def test_truncation_order_must_be_positive():
    a, b, c = float(CANON.alpha), float(CANON.beta), float(CANON.c)
    for call in (
        lambda N: fjk_check(a, b, c, 0.5, 0.3, N),
        lambda N: gen_uy_check(CANON, 0.5, 0.3, N),
        lambda N: catalan_gen_check(0.5, 0.3, N),
        lambda N: gen_at_zero(0.3, N),
        lambda N: gen_at_one(0.3, N),
    ):
        for N in (0, -5):
            with pytest.raises(DomainError, match="N must be positive"):
                call(N)


def test_parameters_past_a_double_are_domain_errors():
    # float(10**400) overflows: the U/Y routes refuse it, at t = 0 too
    huge = AJParams(10**400, 0, 0)
    for call in (
        lambda: gen_uy_check(huge, 0.5, 0.3, 5),
        lambda: gen_uy_check(huge, 0.5, 0.0, 5),
        lambda: u_and_y_seq(huge, 0.5, 5),
    ):
        with pytest.raises(DomainError, match="^alpha, beta and c must lie in the range of a double$"):
            call()


def test_endpoint_coefficient_identities():
    """Catalan number times endpoint value equals the series coefficient
    of the closed form, exactly, for the first 21 coefficients."""
    for n in range(21):
        lhs0 = catalan(n + 1) * atkin_at_zero(n + 1) * F(-1) ** n
        rhs0 = (
            F(-5, 12)
            * pochhammer(F(11, 12), n)
            * pochhammer(F(17, 12), n)
            / (pochhammer(F(3), n) * math.factorial(n))
        )
        assert lhs0 == rhs0
        lhs1 = catalan(n + 1) * atkin_at_one(n + 1)
        rhs1 = (
            F(7, 12)
            * pochhammer(F(11, 12), n)
            * pochhammer(F(19, 12), n)
            / (pochhammer(F(3), n) * math.factorial(n))
        )
        assert lhs1 == rhs1


def test_argument_flip_consistency():
    for t in (0.1, 0.4, 0.8):
        assert gen_zero_pfaff_residual(t) <= 1e-11
    with pytest.raises(DomainError):
        gen_zero_pfaff_residual(-0.6)
