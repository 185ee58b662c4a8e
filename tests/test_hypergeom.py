"""Hypergeometric layer: exact terminating sums, the real Gauss function
with honest error estimates, the two recurrence-built solution families,
and the large-degree asymptotics."""

import math
import random
from fractions import Fraction as F

import pytest

from atkinpoly.assoc_jacobi import S_SET, AJParams, assoc_V, assoc_calV
from atkinpoly.atkin import _rates
from atkinpoly.errors import AtkinError, DomainError, NonConvergent
from atkinpoly.exact import pfq, pochhammer
from atkinpoly.hypergeom import (
    RealValue,
    _monic_coeffs,
    _scale_factors,
    _seed_scale,
    _series_f21,
    atkin_asymptotic,
    atkin_normalized_value,
    atkin_normalized_value_seq,
    buv_combination,
    c_and_d,
    f21_near_one,
    f21_profile_seq,
    f21_real,
    u_and_y_seq,
)
from atkinpoly.ratpoly import RatPoly

CANON = S_SET[1]


def poly_eval_float(p, x):
    """Horner in doubles.  Fine for small degrees; high-degree members of
    an orthogonal family cancel catastrophically here, which is why the
    package evaluates them by value recurrences instead."""
    out = 0.0
    for c in reversed(p.coeffs):
        out = out * x + float(c)
    return out


def test_poly_eval_float():
    p = RatPoly((1, 0, -1))
    assert abs(poly_eval_float(p, 0.5) - 0.75) < 1e-15


def test_terminating_vandermonde():
    # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n
    b, c = F(5, 12), F(7, 3)
    for n in range(9):
        val = pfq((F(-n), b), (c,), F(1))
        assert val == pochhammer(c - b, n) / pochhammer(c, n)


def test_terminating_binomial():
    # 1F0(-n; ; x) = (1 - x)^n
    for n in range(7):
        assert pfq((F(-n),), (), F(1, 3)) == (1 - F(1, 3)) ** n


def test_pfq_requires_termination():
    with pytest.raises(DomainError):
        pfq((F(1, 2), F(1, 3)), (F(3, 2),), F(1))


def test_pfq_denominator_pole():
    # denominator parameter hits zero before the series terminates
    with pytest.raises(DomainError, match="^denominator parameter -2 vanishes before the series terminates$"):
        pfq((F(-5), F(1, 2)), (F(-2),), F(1))


def test_pfq_pole_after_termination_is_fine():
    # numerator cuts the series at 3 terms, pole at -4 is never reached
    val = pfq((F(-2), F(1, 2)), (F(-4),), F(1))
    assert val == 1 - 2 * F(1, 2) / F(-4) + F(1) * pochhammer(F(1, 2), 2) / pochhammer(F(-4), 2)


def _pfq_reference(nums, dens, z):
    """Left-to-right Fraction sum of a terminating pFq, term by term: the
    oracle for pfq, with its argument checks and messages."""
    nums = [F(v) for v in nums]
    dens = [F(v) for v in dens]
    z = F(z)
    stops = [-a for a in nums if a.denominator == 1 and a <= 0]
    if not stops:
        raise DomainError("series does not terminate: no nonpositive-integer numerator parameter")
    terms = int(min(stops))
    for b in dens:
        if b.denominator == 1 and b <= 0 and -b < terms:
            raise DomainError(
                "denominator parameter %s vanishes before the series terminates" % b
            )
    total = F(1)
    term = F(1)
    for k in range(terms):
        num_f = F(1)
        for a in nums:
            num_f *= a + k
        den_f = F(k + 1)
        for b in dens:
            den_f *= b + k
        term = term * z * num_f / den_f
        total += term
    return total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def _random_param(rng):
    if rng.random() < 0.4:
        return F(rng.randint(-45, 12))
    return F(rng.randint(-60, 60), rng.choice((2, 3, 4, 5, 6, 7, 12)))


def test_pfq_matches_left_to_right_reference():
    rng = random.Random(2013)
    raised = set()
    for _ in range(400):
        nums = [_random_param(rng) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.95:  # otherwise it may not terminate
            nums.insert(rng.randint(0, len(nums)), F(-rng.randint(0, 40)))
        dens = [_random_param(rng) for _ in range(rng.randint(0, 4))]
        z = F(rng.randint(-9, 9), rng.randint(1, 8))
        expected = _outcome(_pfq_reference, nums, dens, z)
        assert _outcome(pfq, nums, dens, z) == expected, (nums, dens, z)
        if isinstance(expected, tuple):
            raised.add(expected[1].split()[0])
    # both failures were drawn, told apart by their messages: a series
    # that does not terminate and a denominator pole before it does
    assert raised == {"series", "denominator"}


def test_f21_arcsin_oracle():
    # 2F1(1/2, 1/2; 3/2; z) = asin(sqrt z)/sqrt z
    for z in (0.05, 0.3, 0.7, 0.95):
        r = f21_real(0.5, 0.5, 1.5, z)
        expected = math.asin(math.sqrt(z)) / math.sqrt(z)
        # the default stopping tolerance is 1e-12 relative
        assert abs(r.value - expected) <= 2e-12 * expected


def test_f21_binomial_oracle():
    # 2F1(a, b; b; x) = (1 - x)^(-a), including well left of the origin
    for x in (-0.9, -0.3, 0.2, 0.45, 0.8):
        r = f21_real(0.3, 1.7, 1.7, x)
        expected = (1.0 - x) ** -0.3
        assert abs(r.value - expected) <= 5e-12 * abs(expected)


def test_f21_trivial_points():
    assert f21_real(0.3, 0.7, 1.1, 0.0).value == 1.0
    g = f21_real(0.25, 0.5, 1.5, 1.0)
    expected = (
        math.gamma(1.5) * math.gamma(0.75) / (math.gamma(1.25) * math.gamma(1.0))
    )
    assert abs(g.value - expected) <= 1e-13 * expected


def test_f21_error_estimate_is_honest():
    for z in (0.05, 0.45, 0.8):
        r = f21_real(0.5, 0.5, 1.5, z)
        expected = math.asin(math.sqrt(z)) / math.sqrt(z)
        assert abs(r.value - expected) <= r.abs_error_estimate + 5e-13 * expected


def test_f21_domain_limits():
    with pytest.raises(NonConvergent):
        f21_real(0.3, 0.7, 1.1, 1.2)
    with pytest.raises(NonConvergent):
        f21_real(0.3, 0.7, 1.1, -1.0)
    # logarithmic case: the near-one connection needs c-a-b off the integers
    with pytest.raises(NonConvergent):
        f21_real(1.0, 1.0, 2.0, 0.8)
    # a pole of the function itself, not a limit of the method
    with pytest.raises(DomainError, match="^denominator parameter -2.0 is a nonpositive integer$"):
        f21_real(0.3, 0.7, -2.0, 0.3)
    # at x = 1 the series converges only for c - a - b > 0
    for c in (1.0, 0.9):
        with pytest.raises(NonConvergent, match="^2F1 at 1 requires c-a-b > 0$"):
            f21_real(0.3, 0.7, c, 1.0)


def test_f21_near_one_far_from_one_is_the_direct_series():
    for s in (0.5000000000000001, 0.6, 0.75, 0.9, 1.5):
        assert f21_near_one(0.3, 0.4, 1.2, s) == f21_real(0.3, 0.4, 1.2, 1.0 - s)


def test_f21_near_one_exact_distance():
    r = f21_near_one(0.5, 0.5, 1.5, 1e-8)
    full = math.asin(math.sqrt(1 - 1e-8)) / math.sqrt(1 - 1e-8)
    assert abs(r.value - full) <= 1e-10 * full


def test_connection_series_reaching_a_rounded_pole_is_nonconvergent():
    # c - a - b rounds to 1.9999999999999998, but the first series'
    # denominator parameter a + b - c + 1 rounds to exactly -1.0
    a, b, c = -0.5833333333333334, -1.083333333333333, 0.33333333333333337
    assert a + b - c + 1.0 == -1.0 and c - a - b != 2.0
    with pytest.raises(NonConvergent, match="^series denominator parameter -1.0 rounds to a pole"):
        f21_near_one(a, b, c, 0.5)


def test_connection_formula_past_a_double_is_a_domain_error():
    # Gamma(200.5) overflows, in the connection formula and in Gauss's sum at 1
    with pytest.raises(DomainError, match=r"Gamma\(200.5\).* is past the range of a double$"):
        f21_real(1.0, 2.0, 200.5, 0.9)
    with pytest.raises(DomainError, match=r"Gamma\(200.5\).* is past the range of a double$"):
        f21_real(0.5, 0.25, 200.5, 1.0)
    # 1/Gamma(-1e6 + 1/4): the gamma value underflows to 0.0
    with pytest.raises(DomainError, match="is past the range of a double$"):
        f21_near_one(0.5, 1.5, -999999.75, 0.1)
    # Gamma(-171.5) is subnormal and 1/Gamma(-171.83...) overflows to inf:
    # the product 0 * inf was a nan value
    with pytest.raises(DomainError, match="is past the range of a double$"):
        f21_real(-1.5, 1.0 / 3.0, -171.5, 0.5)
    # (1e-12)**(c - a - b) at c - a - b = -39.125
    with pytest.raises(DomainError, match=r"^the power \(1 - x\)\*\*\(c - a - b\) overflows"):
        f21_near_one(7.5, 19.75, -11.875, 1e-12)


def test_connection_formula_skips_the_power_of_a_vanished_product():
    # at a = -3 the second product has 1/Gamma(a) = 0, so its overflowing
    # power is never formed; the value is the cubic 2F1(-3, b; c; x)
    a, b, c, s = -3.0, 19.75, -11.875, 1e-12
    x = 1.0 - s
    term, cubic = 1.0, 1.0
    for k in range(3):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        cubic += term
    r = f21_near_one(a, b, c, s)
    assert abs(r.value - cubic) <= r.abs_error_estimate + 1e-12 * abs(cubic)


def test_profile_seq_matches_direct_series():
    a, b, d, x = 0.3, 1.1, 0.9, 0.3
    seq = f21_profile_seq(a, b, d, x, 6)
    for n in range(7):
        direct = f21_real(b - n, n + a, d, x).value
        assert abs(seq[n].value - direct) <= 1e-9 * max(1.0, abs(direct))


def test_u_and_y_match_direct_series():
    a, b, c = CANON.alpha, CANON.beta, CANON.c
    us, ys = u_and_y_seq(CANON, 0.3, 5)
    for n, (un, yn) in enumerate(zip(us, ys)):
        du = float((-1) ** n * pochhammer(b + c + 1, n) / pochhammer(c + 1, n))
        du *= f21_real(float(-n - c), float(n + a + b + c + 1), float(1 + b), 0.3).value
        dy = float((-1) ** n * pochhammer(a + c + 1, n) / pochhammer(a + b + c + 1, n))
        dy *= f21_real(float(-n - b - c), float(n + a + c + 1), float(1 - b), 0.3).value
        assert abs(un.value - du) <= 1e-10 * max(1.0, abs(du))
        assert abs(yn.value - dy) <= 1e-10 * max(1.0, abs(dy))


def test_u_and_y_combine_to_the_recurrence_families():
    """Two fixed hypergeometric coefficient pairs rebuild V_n and calV_n
    (after removing the monic normalization) from U_n and Y_n."""
    a, b, c = CANON.alpha, CANON.beta, CANON.c
    for n in range(7):
        scale = float(
            pochhammer(c + 1, n)
            * pochhammer(a + b + c + 1, n)
            / pochhammer(a + b + 2 * c + 1, 2 * n)
        )
        for x in (0.2, 0.6):
            us, ys = u_and_y_seq(CANON, x, n)
            un, yn = us[n], ys[n]
            r_target = poly_eval_float(assoc_V(n, CANON), x) / scale
            calr_target = poly_eval_float(assoc_calV(n, CANON), x) / scale
            r_built = (
                5.0 / 96.0 * f21_real(7 / 12, 7 / 12, 5 / 3, x).value * un.value
                + 91.0 / 96.0 * f21_real(-1 / 12, -1 / 12, 1 / 3, x).value * yn.value
            )
            calr_built = (
                f21_real(7 / 12, -5 / 12, 2 / 3, x).value * un.value
                + 91.0 / 32.0 * x * f21_real(11 / 12, -1 / 12, 4 / 3, x).value * yn.value
            )
            assert abs(r_built - r_target) <= 1e-8 * max(1.0, abs(r_target))
            assert abs(calr_built - calr_target) <= 1e-8 * max(1.0, abs(calr_target))


def _watson_leading_term(a, b, d, theta, n):
    """Oracle: Watson's leading term of 2F1(b - n, n + a; d; sin^2 theta)
    for large n, theta in (0, pi/2) (Watson, Trans. Cambridge Philos. Soc.
    22, 1918)."""
    ct, st = math.cos(theta), math.sin(theta)
    pref = math.gamma(d) * n ** (0.5 - d) / math.sqrt(math.pi)
    pref *= ct ** (d - a - b - 0.5) / st ** (d - 0.5)
    return pref * math.cos(2.0 * n * theta + (a - b) * theta - 0.5 * math.pi * (d - 0.5))


def test_watson_profile_error_decreases():
    a, b, d, th = 0.3, 1.1, 0.9, 1.0
    x = math.sin(th) ** 2
    prof = f21_profile_seq(a, b, d, x, 200)
    rel = {}
    for n in (50, 200):
        w = _watson_leading_term(a, b, d, th, n)
        rel[n] = abs(w - prof[n].value) / abs(prof[n].value)
    assert rel[50] <= 2e-2
    assert rel[200] <= 2e-3
    assert rel[200] < rel[50]


def test_asymptotic_error_shrinks():
    theta = 1.0
    x = math.sin(theta) ** 2
    rel = {}
    for n in (50, 200):
        rel[n] = abs(
            atkin_asymptotic(n, theta) - atkin_normalized_value(n + 1, x)
        ) / abs(atkin_normalized_value(n + 1, x))
    assert rel[200] <= 5e-2
    assert rel[200] < rel[50]


def test_asymptotic_cosine_factors_at_200():
    phase = 2.0 * 201 * 1.0
    assert abs(math.cos(phase + math.pi / 12.0)) > 0.3
    assert abs(math.cos(phase - 7.0 * math.pi / 12.0)) > 0.3


def test_combination_identity_small_degrees():
    vals = {}
    worst = 0.0
    for x in (0.1, 0.25, 0.5, 0.7, 0.9):
        seq = atkin_normalized_value_seq(9, x)
        for n in range(9):
            b = buv_combination(n, x)
            worst = max(worst, abs(b - seq[n + 1]) / max(1.0, abs(seq[n + 1])))
    assert worst <= 1e-6


def test_combination_coefficients_at_endpoints():
    cx, dx = c_and_d(0.0)
    # C carries the whole value at the left endpoint, D vanishes there
    assert abs(cx.value - (-5.0 / 12.0)) <= 1e-15
    assert dx.value == 0.0
    cx1, dx1 = c_and_d(1.0)
    # both coefficients vanish at the right endpoint
    assert abs(cx1.value) <= 1e-12
    assert abs(dx1.value) <= 1e-12


def test_asymptotic_refuses_the_overflow_degrees():
    # 2^(2n+1) is a finite double up to n = 511
    assert math.isfinite(atkin_asymptotic(511, 0.7))
    for n in (512, 540, 10**6):
        with pytest.raises(DomainError):
            atkin_asymptotic(n, 0.7)


def _series_f21_reference(a, b, c, x, tol):
    """The Gauss series loop as first written, with builtin abs/max calls
    in the loop; the production kernel must reproduce it bit for bit."""
    total = 1.0
    term = 1.0
    abssum = 1.0
    big = max(abs(a), abs(b))
    neg = abs(min(c, 0.0))
    ax = abs(x)
    k = 0
    while k < 10**6:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        abssum += abs(term)
        k += 1
        if term == 0.0:
            return total, 2.3e-16 * abssum, abssum
        if k > neg + 1.0:
            q = ax * (k + big) * (k + big) / ((k + 1.0) * (k - neg))
            if 0.0 < q < 1.0:
                tail = abs(term) * q / (1.0 - q)
                if tail <= tol * max(1.0, abs(total)):
                    return total, tail + 2.3e-16 * abssum, abssum
    raise NonConvergent("2F1 series cap reached at x=%r" % x)


def test_series_kernel_matches_reference_bitwise():
    rng = random.Random(20)
    for _ in range(3000):
        a, b, c = (rng.uniform(-4.0, 4.0) for _ in range(3))
        if rng.random() < 0.2:
            a = float(-rng.randrange(6))  # terminating series
        x = rng.uniform(-0.5, 0.5) if rng.random() < 0.5 else rng.uniform(-0.99, 0.99)
        got = _series_f21(a, b, c, x)
        want = _series_f21_reference(a, b, c, x, 1e-12)  # the kernel's one tolerance
        assert [v.hex() for v in got] == [v.hex() for v in want], (a, b, c, x)


# the parameter triples the weight (F, F*) and c_and_d evaluate
_USED_TRIPLES = (
    (1.0 / 12.0, 1.0 / 12.0, 2.0 / 3.0),
    (5.0 / 12.0, 5.0 / 12.0, 4.0 / 3.0),
    (-5.0 / 12.0, -5.0 / 12.0, -1.0 / 3.0),
    (-5.0 / 12.0, -5.0 / 12.0, 2.0 / 3.0),
    (-1.0 / 12.0, -1.0 / 12.0, 1.0 / 3.0),
    (11.0 / 12.0, -1.0 / 12.0, 4.0 / 3.0),
)


def test_f21_estimate_bounds_true_error_near_one():
    """Against mpmath at 40 digits, on the connection-formula branch
    x >= 0.5: random parameters, and the triples the package uses with
    distances to 1 down to 1e-300 (as the weight supplies them)."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    cases = []
    for _ in range(600):
        a, b, c = (rng.uniform(-3.0, 3.0) for _ in range(3))
        cases.append((a, b, c, rng.uniform(0.5, 1.0), None))
    for _ in range(300):
        a, b, c = rng.choice(_USED_TRIPLES)
        cases.append((a, b, c, None, 10.0 ** -rng.uniform(0.31, 300.0)))
    checked = 0
    for a, b, c, x, s in cases:
        try:
            r = f21_real(a, b, c, x) if s is None else f21_near_one(a, b, c, s)
        except (NonConvergent, ValueError, OverflowError):
            continue  # c-a-b integer, or a gamma factor out of range
        with mpmath.workdps(40 if s is None else 40 + int(-math.log10(s))):
            exact = mpmath.hyp2f1(a, b, c, x if s is None else 1 - mpmath.mpf(s))
            err = abs(mpmath.mpf(r.value) - exact)
        assert err <= r.abs_error_estimate, (a, b, c, x, s, r, float(err))
        checked += 1
    assert checked >= 850


def test_f21_estimate_covers_the_rounding_of_the_series_parameters():
    """With c - a - b within 1e-6..1e-1 of an integer, the denominator
    parameter of one connection series (a + b - c + 1 or c - a - b + 1)
    lies as close to a nonpositive integer, and its rounding moves that
    series by far more than its truncation bound."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    for _ in range(1000):
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(1.0, 6.0)
        c = a + b + rng.randint(-4, 4) + offset
        s = rng.uniform(0.0, 0.5)
        r = f21_near_one(a, b, c, s)
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(r.value) - mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(s)))
        assert err <= r.abs_error_estimate, (a, b, c, s, r, float(err))


# The float value loops as they were before every sequence ran on one
# stepper; the stepper must reproduce them bit for bit, error channels
# included.


def _monic_seq_reference(alpha, beta, c, x, nmax, t0, t1):
    vals = [t0[0], t1[0]]
    errs = [t0[1], t1[1]]
    for n in range(1, nmax):
        shift, prod = _monic_coeffs(alpha, beta, c, n)
        v = (x - shift) * vals[n] - prod * vals[n - 1]
        vals.append(v)
        errs.append(
            abs(x - shift) * errs[n] + abs(prod) * errs[n - 1] + 2.3e-16 * abs(v)
        )
    return vals[: nmax + 1], errs[: nmax + 1]


def _profile_reference(a, b, d, x, nmax):
    al, be, cc = a + b - d, d - 1.0, -b
    if abs(cc + 1.0) < 1e-12 or abs(be + cc + 1.0) < 1e-12:
        raise DomainError("profile parameters degenerate the seed scaling")
    gs = _scale_factors(nmax, lambda n: (
        -(al + be + 2 * cc + 1.0 + 2 * n)
        * (al + be + 2 * cc + 2.0 + 2 * n)
        / ((be + cc + 1.0 + n) * (al + be + cc + 1.0 + n))
    ))
    f0 = f21_real(b, a, d, x)
    f1 = f21_real(b - 1.0, a + 1.0, d, x)
    u1 = -(be + cc + 1.0) / (cc + 1.0)
    s1 = _seed_scale(al, be, cc)
    if nmax == 0:
        return [f0]
    vals, errs = _monic_seq_reference(
        al, be, cc, x, nmax, (f0.value, f0.abs_error_estimate),
        (s1 * u1 * f1.value, abs(s1 * u1) * f1.abs_error_estimate),
    )
    return [RealValue(g * v, abs(g) * e) for g, v, e in zip(gs, vals, errs)]


def _uy_monic_reference(af, bf, cf, x, nmax):
    u0 = f21_real(-cf, af + bf + cf + 1.0, 1.0 + bf, x)
    u1s = f21_real(-1.0 - cf, af + bf + cf + 2.0, 1.0 + bf, x)
    u1 = -(bf + cf + 1.0) / (cf + 1.0) * u1s.value
    y0 = f21_real(-bf - cf, af + cf + 1.0, 1.0 - bf, x)
    y1s = f21_real(-1.0 - bf - cf, af + cf + 2.0, 1.0 - bf, x)
    y1 = -(af + cf + 1.0) / (af + bf + cf + 1.0) * y1s.value
    su = _seed_scale(af, bf, cf)
    if nmax == 0:
        return ([(u0.value, u0.abs_error_estimate)], [(y0.value, y0.abs_error_estimate)])
    uv, ue = _monic_seq_reference(
        af, bf, cf, x, nmax, (u0.value, u0.abs_error_estimate),
        (su * u1, abs(su * (bf + cf + 1.0) / (cf + 1.0)) * u1s.abs_error_estimate),
    )
    yv, ye = _monic_seq_reference(
        af, bf, cf, x, nmax, (y0.value, y0.abs_error_estimate),
        (su * y1, abs(su * (af + cf + 1.0) / (af + bf + cf + 1.0)) * y1s.abs_error_estimate),
    )
    return (list(zip(uv, ue)), list(zip(yv, ye)))


def _u_and_y_reference(params, x, nmax):
    af, bf, cf = float(params.alpha), float(params.beta), float(params.c)
    gs = _scale_factors(nmax, lambda n: (
        (af + bf + 2 * cf + 1.0 + 2 * n) * (af + bf + 2 * cf + 2.0 + 2 * n)
        / ((cf + 1.0 + n) * (af + bf + cf + 1.0 + n))
    ))
    tu, ty = _uy_monic_reference(af, bf, cf, x, nmax)
    us = [RealValue(g * v, abs(g) * e) for g, (v, e) in zip(gs, tu)]
    ys = [RealValue(g * v, abs(g) * e) for g, (v, e) in zip(gs, ty)]
    return us, ys


def _buv_reference(n, x):
    tu, ty = _uy_monic_reference(0.5, -2.0 / 3.0, 7.0 / 12.0, x, n)
    cx, dx = c_and_d(x)
    return cx.value * tu[n][0] + dx.value * ty[n][0]


def _atkin_values_reference(nmax, x):
    out = [1.0]
    if nmax == 0:
        return out
    out.append(x - 5.0 / 12.0)
    if nmax >= 2:
        out.append(x * x - float(F(205, 216)) * x + float(F(935, 10368)))
    for m in range(2, nmax):
        lam, mu = _rates(m)
        shift = float(lam + mu)
        prod = float(_rates(m - 1)[0] * mu)
        out.append((x - shift) * out[m] - prod * out[m - 1])
    return out[: nmax + 1]


def _bits(fn, *args):
    """Every double of a result as hex, or the failure's type and message."""
    try:
        result = fn(*args)
    except AtkinError as exc:
        return type(exc), str(exc)
    flat = []
    stack = [result]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(reversed(item))
        else:
            flat.append(item.hex())
    return flat


def _random_params(rng):
    return AJParams(*(F(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 12))) for _ in range(3)))


def test_stepper_matches_the_loops_it_replaced_bitwise():
    rng = random.Random(13)
    horizons = (0, 1, 2, 0, 1, 2, 3, 7, 40, 200, 500)
    for _ in range(150):
        a, b, d = (rng.uniform(-3.0, 3.0) for _ in range(3))
        args = (a, b, d, rng.uniform(0.01, 0.99), rng.choice(horizons))
        assert _bits(f21_profile_seq, *args) == _bits(_profile_reference, *args), args
    for _ in range(150):
        args = (_random_params(rng), rng.uniform(0.01, 0.99), rng.choice(horizons))
        assert _bits(u_and_y_seq, *args) == _bits(_u_and_y_reference, *args), args
    for _ in range(60):
        args = (rng.choice((0, 1, 2, 3, 30, 300)), rng.uniform(0.001, 0.999))
        assert _bits(buv_combination, *args) == _bits(_buv_reference, *args), args
    for _ in range(60):
        args = (rng.choice((0, 1, 2, 3, 50, 527, 530, 533)), rng.uniform(-0.2, 1.2))
        assert _bits(atkin_normalized_value_seq, *args) == _bits(_atkin_values_reference, *args), args


@pytest.mark.parametrize("fn, reference, args", (
    # the parameter poles of the genfun uy and fjk calls in test_cli.py,
    # fjk (alpha, beta, c) being the profile at (beta, -alpha, c)
    (u_and_y_seq, _u_and_y_reference, (AJParams(F(1, 3), F(1, 3), F(-2)), 0.5, 5)),
    (f21_profile_seq, _profile_reference, (0.0, -0.5, 7.0 / 12.0, 0.5, 5)),
    (f21_profile_seq, _profile_reference, (-0.5, -0.5, 7.0 / 12.0, 0.5, 5)),
    (f21_profile_seq, _profile_reference, (-1.5, -0.5, 7.0 / 12.0, 0.5, 5)),
    (u_and_y_seq, _u_and_y_reference, (AJParams(F(1, 3), F(0), F(-2, 3)), 0.5, 5)),
    (f21_profile_seq, _profile_reference, (-2.0 / 3.0, -0.5, 0.0, 0.5, 5)),
    (u_and_y_seq, _u_and_y_reference, (AJParams(F(1, 2), F(-1), F(7, 12)), 0.5, 5)),
    # alpha + beta + 2c = -4: the shift and product degenerate at index 1
    (u_and_y_seq, _u_and_y_reference, (AJParams(F(-3), F(0), F(-1, 2)), 0.3, 5)),
))
def test_stepper_fails_like_the_loops_it_replaced(fn, reference, args):
    got = _bits(fn, *args)
    assert isinstance(got, tuple) and issubclass(got[0], DomainError)
    assert got == _bits(reference, *args)
