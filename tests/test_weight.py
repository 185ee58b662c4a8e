"""Orthogonality weight: the normalizing constant, the angle map, the
Wronskian identity, positivity, moments, and the Gram matrix."""

import math

import pytest

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


def test_total_mass():
    assert abs(quad_integrate(weight_w) - 1.0) <= 1e-8


def test_first_moment():
    m1 = quad_integrate(lambda j: j * weight_w(j))
    assert abs(m1 - 720.0) <= 1e-5 * 720.0


def test_second_moment():
    m2 = quad_integrate(lambda j: j * j * weight_w(j))
    # 393120 + 720^2
    assert abs(m2 - 911520.0) <= 1e-5 * 911520.0


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
        _tanh_sinh_piece(lambda x, d0, d1: 1.0 / d0, 0.0, 1.0, 1e-10, 3)


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
