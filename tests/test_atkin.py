"""Atkin family: printed tables, the coefficient recurrence against the
three-term recurrence, recurrence structure, explicit form, endpoint
values, pointwise evaluation, and root interlacing."""

import importlib
import math
from fractions import Fraction as F

import pytest

from atkinpoly.atkin import (
    atkin,
    atkin_at_one,
    atkin_at_one_seq,
    atkin_at_zero,
    atkin_at_zero_seq,
    atkin_normalized,
    atkin_rates,
    kz_explicit,
)
from atkinpoly.errors import DomainError
from atkinpoly.exact import pochhammer
from atkinpoly.hypergeom import atkin_normalized_value, atkin_normalized_value_seq
from atkinpoly.ratpoly import RatPoly, poly_eval
from schoolbook import combine, compose

# the package namespace binds the name atkin to the function
atkin_module = importlib.import_module("atkinpoly.atkin")


def test_original_tables():
    assert atkin(0) == RatPoly((1,))
    assert atkin(1) == RatPoly((-720, 1))
    assert atkin(2) == RatPoly((269280, -1640, 1))


def test_normalized_tables():
    assert atkin_normalized(1) == RatPoly((F(-5, 12), 1))
    assert atkin_normalized(2) == RatPoly((F(935, 10368), F(-205, 216), 1))
    assert atkin_normalized(3) == RatPoly(
        (F(-124729, 5971968), F(28277, 55296), F(-131, 90), 1)
    )


def test_monic_and_degree():
    for n in range(26):
        p = atkin(n)
        assert p.degree() == n
        assert p.coeffs[-1] == 1
        assert atkin_normalized(n).coeffs[-1] == 1


def test_normalized_is_rescaled_original():
    for n in range(12):
        scaled = RatPoly([c / 1728**n for c in compose(atkin(n), 1728, 0).coeffs])
        assert scaled == atkin_normalized(n)


def test_coefficient_recurrence_equals_the_three_term_recurrence():
    for n in list(range(201)) + [400]:
        assert atkin(n) == atkin_module._three_term(n)
        assert atkin_normalized(n) == atkin_module._three_term(n, normalized=True)


def test_coefficient_recurrence_at_the_first_degrees():
    # the route itself, past the memo
    route = atkin_module._coefficient_recurrence
    assert route(0) == RatPoly((1,))
    assert route(1) == RatPoly((-720, 1))
    assert route(2) == RatPoly((269280, -1640, 1))


def test_atkin_is_memoized_per_degree():
    assert atkin(37) is atkin(37)
    assert atkin_normalized(37) is atkin_normalized(37)


def _gauss_terms(a, b, c, count):
    """The first count terms of 2F1(a, b; c; t), by the term ratio."""
    out = [F(1)]
    for k in range(count - 1):
        out.append(out[-1] * (a + k) * (b + k) / ((c + k) * (k + 1)))
    return out


def test_normalized_polynomial_is_a_cauchy_product_of_two_gauss_series():
    """The coefficient of x^(n-i) is [t^i] 2F1(1/12, 5/12; 1; t)
    2F1(-n - 1/12, 7/12 - n; 1 - 2n; t), the product that the coefficient
    recurrence is derived from; checked against the published double sum,
    with neither recurrence involved."""
    for n in range(41):
        f = _gauss_terms(F(1, 12), F(5, 12), 1, n + 1)
        g = _gauss_terms(-n - F(1, 12), F(7, 12) - n, 1 - 2 * n, n + 1)
        h = [sum((f[i - m] * g[m] for m in range(i + 1)), F(0)) for i in range(n + 1)]
        assert RatPoly(reversed(h)) == _kz_double_sum(n)


def test_rates_values():
    lam, mu = atkin_rates(1)
    assert lam == F(187, 864)
    assert mu == F(91, 288)
    assert lam + mu == F(115, 216)
    with pytest.raises(DomainError):
        atkin_rates(0)


def _atkin_rates_reference(n):
    """Oracle: the rates of the normalized family in closed form, n >= 1."""
    lam = F((12 * n - 1) * (12 * n + 5), 288 * n * (2 * n + 1))
    mu = F((12 * n - 5) * (12 * n + 1), 288 * n * (2 * n - 1))
    return lam, mu


def test_rates_match_the_closed_form():
    for n in range(1, 301):
        rates = atkin_rates(n)
        assert rates == _atkin_rates_reference(n)
        assert type(rates) is tuple and [type(r) for r in rates] == [F, F]


def test_rates_positive_and_bounded():
    # both rates stay in (0, 1/2) and their sum below 1
    for n in range(1, 40):
        lam, mu = atkin_rates(n)
        assert 0 < lam < F(1, 2)
        assert 0 < mu < F(1, 2)
        assert lam + mu < 1


def test_rates_generate_the_recurrence():
    """shift_n = lambda_n + mu_n and prod_n = lambda_{n-1} mu_n rebuild
    the normalized three-term recurrence exactly."""
    for n in range(2, 16):
        lam, mu = atkin_rates(n)
        lam_prev = atkin_rates(n - 1)[0]
        rhs = combine(1, -(lam + mu), atkin_normalized(n), -lam_prev * mu, atkin_normalized(n - 1))
        assert rhs == atkin_normalized(n + 1)


def _binom_seq(a, count):
    """a over k for k in range(count), by the term ratio (a - k)/(k + 1)."""
    out = [F(1)]
    for k in range(count - 1):
        out.append(out[-1] * (a - k) / (k + 1))
    return out


def _kz_double_sum(n):
    """The published Kaneko-Zagier form: the coefficient of x^(n-i) is
    sum_m C(-1/12, i-m) C(-5/12, i-m) (-1)^m C(n+1/12, m) C(n-7/12, m) / C(2n-1, m)."""
    b1, b2, b3, b4, b5 = (
        _binom_seq(F(a), n + 1) for a in (F(-1, 12), F(-5, 12), n + F(1, 12), n - F(7, 12), 2 * n - 1)
    )
    left = [x * y for x, y in zip(b1, b2)]  # the factors indexed by i - m
    right = [(-1) ** m * b3[m] * b4[m] / b5[m] for m in range(n + 1)]
    coeffs = [F(0)] * (n + 1)
    for i in range(n + 1):
        coeffs[n - i] = sum((left[i - m] * right[m] for m in range(i + 1)), F(0))
    return RatPoly(coeffs)


def test_kz_explicit_is_the_double_sum():
    for n in range(61):
        assert kz_explicit(n) == _kz_double_sum(n)


def test_double_binomial_form():
    for n in list(range(21)) + [120, 200]:
        assert kz_explicit(n) == atkin_normalized(n)


def test_endpoint_values_are_the_last_terms_of_their_sequences():
    zeros, ones = atkin_at_zero_seq(300), atkin_at_one_seq(300)
    for n in range(1, 301):
        assert atkin_at_zero(n) == zeros[n - 1]
        assert atkin_at_one(n) == ones[n - 1]


def test_endpoint_values_match_polynomials():
    for n in range(1, 31):
        p = atkin_normalized(n)
        assert poly_eval(p, F(0)) == atkin_at_zero(n)
        assert poly_eval(p, F(1)) == atkin_at_one(n)


def test_endpoint_sequences_match_closed_forms():
    # with m = n - 1: A_n(0) = (-1)^m (-5/12) (11/12)_m (17/12)_m / (2m+1)!
    # and A_n(1) = (7/12) (11/12)_m (19/12)_m / (2m+1)!
    zeros = atkin_at_zero_seq(200)
    ones = atkin_at_one_seq(200)
    assert len(zeros) == len(ones) == 200
    for n in range(1, 201):
        m = n - 1
        fact = math.factorial(2 * m + 1)
        at_zero = (-1) ** m * F(-5, 12) * pochhammer(F(11, 12), m) * pochhammer(F(17, 12), m) / fact
        at_one = F(7, 12) * pochhammer(F(11, 12), m) * pochhammer(F(19, 12), m) / fact
        assert zeros[n - 1] == atkin_at_zero(n) == at_zero
        assert ones[n - 1] == atkin_at_one(n) == at_one
    assert atkin_at_zero_seq(0) == []


def test_endpoint_values_printed():
    assert atkin_at_zero(1) == F(-5, 12)
    assert atkin_at_one(2) == F(1463, 10368)


def test_endpoint_signs():
    # value at 0 alternates, value at 1 stays positive
    for n in range(1, 25):
        assert (atkin_at_zero(n) > 0) == (n % 2 == 0)
        assert atkin_at_one(n) > 0


def test_value_seq_matches_exact_recurrence():
    """Float value recurrence at x = 7/10 against the same recurrence run
    in exact arithmetic, out to degree 201."""
    xq = F(7, 10)
    vals = atkin_normalized_value_seq(201, 0.7)
    vprev, vcur = F(1), xq - F(5, 12)
    for n in range(1, 201):
        lam, mu = atkin_rates(n)
        prod = F(455, 3456) if n == 1 else atkin_rates(n - 1)[0] * mu
        vprev, vcur = vcur, (xq - (lam + mu)) * vcur - prod * vprev
    assert abs(vals[201] - float(vcur)) <= 1e-12 * abs(float(vcur))


def test_value_seq_agrees_with_polynomials():
    for x in (0.1, 0.5, 0.9):
        vals = atkin_normalized_value_seq(8, x)
        for n in range(9):
            exact = float(poly_eval(atkin_normalized(n), F(x)))
            assert abs(vals[n] - exact) < 1e-9 * max(1.0, abs(exact))
    assert atkin_normalized_value(3, 0.5) == atkin_normalized_value_seq(3, 0.5)[3]


def _exact_roots(p, grid=2048):
    """All roots of p in (0, 1), found by exact sign changes on a grid and
    bisection in rational arithmetic down to width 1e-9.  Float evaluation
    is useless here: adjacent roots at degree 12 sit closer than the noise
    of a float Horner pass."""
    roots = []
    prev_x = F(0)
    v0 = poly_eval(p, prev_x)
    prev_s = 1 if v0 > 0 else -1
    for k in range(1, grid + 1):
        xk = F(k, grid)
        v = poly_eval(p, xk)
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s == 0:
            roots.append(xk)
            prev_x, prev_s = xk, -prev_s
            continue
        if s != prev_s:
            lo, hi, slo = prev_x, xk, prev_s
            while hi - lo > F(1, 10**9):
                mid = (lo + hi) / 2
                vm = poly_eval(p, mid)
                if vm == 0:
                    lo = hi = mid
                    break
                if (1 if vm > 0 else -1) == slo:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
        prev_x, prev_s = xk, s
    return roots


def test_roots_real_simple_interlacing():
    prev = None
    for n in range(1, 13):
        roots = _exact_roots(atkin_normalized(n))
        assert len(roots) == n  # all roots real, simple, inside (0, 1)
        if prev is not None:
            for i in range(n - 1):
                assert roots[i] < prev[i] < roots[i + 1]
        prev = roots


def test_degree_validation():
    for fn in (atkin, atkin_normalized):
        with pytest.raises(DomainError, match="^degree must be nonnegative$"):
            fn(-1)
    with pytest.raises(DomainError):
        atkin_at_zero(0)
