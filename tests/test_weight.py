"""Orthogonality weight: the normalizing constant, the angle map, the
Wronskian identity, positivity, moments, and the Gram matrix."""

import math
from fractions import Fraction

import pytest

from atkinpoly.atkin import atkin_rates
from atkinpoly.errors import DomainError, NonConvergent
from atkinpoly.weight import (
    _phi_prime,
    _tanh_sinh_piece,
    _w_core,
    f_and_fstar,
    gram,
    lambda_star,
    phi,
    quad_integrate,
    weight_w,
    wronskian_residual,
)

LAMBDA_REF = 0.19371911939244263  # gamma-product form, checked both ways


def phi_prime(J):
    """Derivative of the angle map on (0, 1), from the kernel the weight uses."""
    return _phi_prime(J ** (1.0 / 3.0), 1.0 - J, *f_and_fstar(J), lambda_star())


def test_lambda_star_value():
    lam = lambda_star()
    assert abs(lam - LAMBDA_REF) <= 5e-16
    assert 0.0 < lam < 1.0


def test_f_pair_at_origin():
    f, fs = f_and_fstar(0.0)
    assert f == 1.0
    assert fs == 1.0
    with pytest.raises(DomainError):
        f_and_fstar(-0.1)
    with pytest.raises(DomainError):
        f_and_fstar(1.5)


def test_angle_endpoints():
    assert abs(phi(0.0) - math.pi / 3.0) <= 1e-9
    assert abs(phi(1.0) - math.pi / 2.0) <= 1e-9


def test_angle_monotone():
    grid = [k / 100.0 for k in range(101)]
    values = [phi(J) for J in grid]
    for a, b in zip(values, values[1:]):
        assert b > a
    for J in grid[1:-1]:
        assert phi_prime(J) > 0.0


def test_angle_derivative_finite_difference():
    J, h = 0.3, 1e-5
    fd = (phi(J + h) - phi(J - h)) / (2.0 * h)
    assert abs(phi_prime(J) - fd) <= 1e-6 * abs(fd)


def test_wronskian_grid():
    for k in range(1, 10):
        assert wronskian_residual(k / 10.0) <= 1e-9


def test_weight_satisfies_first_order_equation():
    """z(1-z) W' = ((7/6) z - 2/3) W for the closed-form combination
    W(z) = const z^(-2/3) (1-z)^(-1/2); checked by central difference."""
    lam = lambda_star()

    def W(z):
        return lam / math.sqrt(3.0) * z ** (-2.0 / 3.0) / math.sqrt(1.0 - z)

    z, h = 0.3, 1e-5
    lhs = z * (1.0 - z) * (W(z + h) - W(z - h)) / (2.0 * h)
    rhs = (7.0 / 6.0 * z - 2.0 / 3.0) * W(z)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_weight_positive():
    for k in range(1, 100):
        assert weight_w(1728.0 * k / 100.0) > 0.0


def test_weight_near_zero_down_to_subnormal_points():
    # below j/1728 ~ 1e-300 the weight is its leading term, a multiple of
    # j^(-2/3); for j < 3.85e-305 the quotient j/1728 is subnormal, and the
    # two routes behind weight_w must still agree
    ref = weight_w(1e-300)
    for j in (1e-304, 1e-310, 1e-315, 1e-320, 5e-324):
        assert weight_w(j) / ref == pytest.approx((j / 1e-300) ** (-2.0 / 3.0), rel=1e-13)


def test_weight_domain():
    with pytest.raises(DomainError):
        weight_w(0.0)
    with pytest.raises(DomainError):
        weight_w(1728.0)
    with pytest.raises(DomainError):
        weight_w(2000.0)


def test_weight_is_rescaled_angle_derivative():
    for j in (200.0, 720.0, 1500.0):
        lhs = weight_w(j)
        rhs = 6.0 / (1728.0 * math.pi) * phi_prime(j / 1728.0)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_first_moment():
    m1 = quad_integrate(lambda j: j * weight_w(j))
    assert abs(m1 - 720.0) <= 1e-5 * 720.0


def test_second_moment():
    m2 = quad_integrate(lambda j: j * j * weight_w(j))
    # 393120 + 720^2
    assert abs(m2 - 911520.0) <= 1e-5 * 911520.0


def _exact_moment(k):
    """Integral of (j/1728)^k w(j) dj: x^k in the monic basis of the
    normalized family, by its Jacobi matrix; the weight has mass 1, so
    the moment is the coordinate of the degree-0 member."""

    def rates(m):
        return (Fraction(5, 12), Fraction(0)) if m == 0 else atkin_rates(m)

    c = [Fraction(1)]
    for _ in range(k):
        d = [Fraction(0)] * (len(c) + 1)
        for m, v in enumerate(c):
            lam, mu = rates(m)
            d[m + 1] += v
            d[m] += (lam + mu) * v
            if m:
                d[m - 1] += rates(m - 1)[0] * mu * v
        c = d
    return c[0]


def test_total_mass():
    # near 1728 the node x rounds the distance the weight sees; levels past
    # that floor only add noise (1095 calls and 4.4e-9 without the floor)
    calls = []

    def counted(j):
        calls.append(j)
        return weight_w(j)

    assert abs(quad_integrate(counted) - 1.0) <= 1e-9
    assert len(calls) <= 160


def test_endpoint_powers_match_the_beta_integral():
    exact = math.gamma(1.0 / 3.0) * math.gamma(0.5) / math.gamma(5.0 / 6.0) * 1728.0 ** (-1.0 / 6.0)
    got = quad_integrate(lambda x: x ** (-2.0 / 3.0) * (1728.0 - x) ** -0.5)
    assert abs(got - exact) <= 2e-9 * exact


def test_moments_match_the_jacobi_matrix():
    assert float(_exact_moment(1)) == 720.0 / 1728.0
    for k in range(11):
        exact = float(_exact_moment(k))
        got = quad_integrate(lambda j: (j / 1728.0) ** k * weight_w(j))
        assert abs(got - exact) <= 5e-9 * exact, k


def test_polynomials_stay_exact():
    assert quad_integrate(lambda x: 1.0) == 1728.0
    assert quad_integrate(lambda x: (x / 1728.0) ** 3) == 432.0


@pytest.mark.parametrize(
    "f",
    [
        lambda x: (1728.0 - x) ** -0.75,
        lambda x: (1728.0 - x) ** -0.9,
        lambda x: 1.0 / (1728.0 - x),
        lambda x: x ** -0.99,
    ],
    ids=["(1728-x)^-3/4", "(1728-x)^-9/10", "1/(1728-x)", "x^-0.99"],
)
def test_integrands_beyond_the_weight_still_do_not_converge(f):
    # their rounding floor is past the 1e-8 the quadrature promises; were it
    # forgiven, the first three would return 25.79, 20.60 and 37.03
    with pytest.raises(NonConvergent):
        quad_integrate(f)


def test_gram_diagonal_and_symmetry():
    assert abs(gram(0, 0) - 1.0) <= 1e-8
    assert abs(gram(1, 1) - 393120.0) <= 1e-6 * 393120.0
    assert gram(2, 3) == gram(3, 2)


def test_gram_off_diagonal_small():
    diag = [gram(n, n) for n in range(6)]
    for m in range(6):
        for n in range(m + 1, 6):
            assert abs(gram(m, n)) / math.sqrt(diag[m] * diag[n]) <= 1e-7


def test_gram_diagonal_ratios_follow_recurrence_products():
    diag = [gram(n, n) for n in range(6)]
    for n in range(1, 6):
        if n == 1:
            expected = 393120.0
        else:
            expected = (
                36.0
                * (12 * n - 13)
                * (12 * n - 7)
                * (12 * n - 5)
                * (12 * n + 1)
                / (n * (n - 1) * (2 * n - 1) ** 2)
            )
        ratio = diag[n] / diag[n - 1]
        assert abs(ratio - expected) <= 1e-5 * expected


def test_gram_degree_limit():
    with pytest.raises(DomainError):
        gram(0, 9)


def test_quadrature_level_cap_raises():
    # 1/x is not integrable on (0, 1): the level sums keep growing
    with pytest.raises(NonConvergent):
        _tanh_sinh_piece(lambda x, d0, d1: 1.0 / d0, 0.0, 1.0, 1e-10, 3, False)


def test_weight_memo_is_bounded_and_transparent():
    """Every weight-based result is bitwise the same from a cold memo
    and from a warm one."""
    assert _w_core.cache_info().maxsize is not None
    points = (1e-300, 0.5, 200.0, 864.0, 1500.0, 1727.9999999999998)
    pairs = [(m, n) for m in range(9) for n in range(m, 9)]

    def results():
        return (
            quad_integrate(weight_w).hex(),
            {mn: gram(*mn).hex() for mn in pairs},
            [weight_w(j).hex() for j in points],
        )

    _w_core.cache_clear()
    cold = results()
    assert _w_core.cache_info().currsize <= _w_core.cache_info().maxsize
    assert results() == cold
    # each Gram entry from a memo emptied just before it
    for mn in pairs:
        _w_core.cache_clear()
        assert gram(*mn).hex() == cold[1][mn]
