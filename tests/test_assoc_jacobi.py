"""Associated families: printed tables, the parameter quadruple, explicit
double sums, the three representations, and the contiguous identities
behind the explicit Atkin form."""

import math
import random
import re
from fractions import Fraction as F

import pytest

from atkinpoly.assoc_jacobi import (
    REP1_DEFAULT_COEFF,
    S_SET,
    AJParams,
    Variant,
    _family,
    aj_rates,
    assoc_V,
    assoc_calV,
    atkin_via_representation,
    im_calV_explicit,
    monic_jacobi,
    ourrep_explicit,
    wimp_V_explicit,
)
from atkinpoly.atkin import atkin_normalized
from atkinpoly.errors import DomainError
from atkinpoly.exact import pfq, pochhammer
from atkinpoly.ratpoly import RatPoly
from atkinpoly.selftest import rep1_solved_coeff
from schoolbook import combine, compose

CANON = S_SET[1]

# the message of a pole of a birth or death rate
_RATE_POLE = r"^(lambda|mu) denominator vanishes at index \d+$"


def _jacobi_loop(nmax, alpha, beta):
    """Oracle: P_0..P_nmax^{(alpha,beta)} by the classical three-term
    recurrence; DomainError stands in for every degree the loop
    cannot reach past a vanishing recurrence denominator."""
    ab = alpha + beta
    out = [RatPoly.one(), RatPoly(((alpha - beta) / 2, (ab + 2) / 2))]
    for m in range(1, nmax):
        den = 2 * (m + 1) * (m + ab + 1) * (2 * m + ab)
        if den == 0:
            return out + [DomainError] * (nmax - m)
        out.append(
            combine(
                (2 * m + ab + 1) * (2 * m + ab) * (2 * m + ab + 2) / den,
                (2 * m + ab + 1) * (alpha * alpha - beta * beta) / den,
                out[m],
                -F(2 * (m + alpha) * (m + beta) * (2 * m + ab + 2)) / den,
                out[m - 1],
            )
        )
    return out[: nmax + 1]


def _monic_jacobi_loop(n, alpha, beta, p):
    """Oracle: n!/(n+alpha+beta+1)_n times the loop's P_n = p at 2x - 1."""
    den = pochhammer(n + alpha + beta + 1, n)
    if den == 0 or p is DomainError:
        return DomainError
    return RatPoly([F(math.factorial(n)) / den * c for c in compose(p, 2, -1).coeffs])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        assert re.match(_RATE_POLE, str(exc)), exc
        return DomainError


def test_s_set_characterization():
    assert len(S_SET) == 4
    for p in S_SET:
        assert p.alpha + p.beta + 2 * p.c == 1
    assert CANON == AJParams(F(1, 2), F(-2, 3), F(7, 12))


def test_jacobi_seed_values():
    # the oracle's P_2 at (0,0) is the Legendre polynomial (3x^2-1)/2
    assert _jacobi_loop(2, F(0), F(0))[2] == RatPoly((F(-1, 2), 0, F(3, 2)))
    assert monic_jacobi(2, F(0), F(0)) == RatPoly((F(1, 6), -1, 1))
    for n in range(7):
        assert monic_jacobi(n, F(1, 2), F(-2, 3)).coeffs[-1] == 1


def test_jacobi_degenerate_parameters():
    with pytest.raises(DomainError, match="^lambda denominator vanishes at index 0$"):
        monic_jacobi(3, F(-1), F(-1))


def test_zero_association_recovers_monic_jacobi():
    a, b = F(1, 2), F(-2, 3)
    for n, p in enumerate(_jacobi_loop(6, a, b)):
        assert assoc_V(n, AJParams(a, b, 0)) == _monic_jacobi_loop(n, a, b, p)


# halves and thirds: alpha + beta = -1 (Chebyshev at -1/2, -1/2),
# alpha = beta = 0 (Legendre), and the integer lines alpha + beta <= -2
# on which the Jacobi normalization (n + alpha + beta + 1)_n can vanish
_JACOBI_GRID = sorted({F(k, 2) for k in range(-6, 7)} | {F(-4, 3), F(-1, 3), F(2, 3)})


def test_jacobi_families_match_the_classical_recurrence():
    degenerate = 0
    for alpha in _JACOBI_GRID:
        for beta in _JACOBI_GRID:
            for n, p in enumerate(_jacobi_loop(8, alpha, beta)):
                want = _monic_jacobi_loop(n, alpha, beta, p)
                assert _outcome(monic_jacobi, n, alpha, beta) == want, (n, alpha, beta)
                degenerate += want is DomainError
    assert degenerate > 30
    # monic Chebyshev T_4 and the monic Legendre polynomial on [0, 1]
    assert monic_jacobi(4, F(-1, 2), F(-1, 2)) == RatPoly((F(1, 128), F(-1, 4), F(5, 4), -2, 1))
    assert monic_jacobi(2, 0, 0) == RatPoly((F(1, 6), -1, 1))


def test_printed_v_tables():
    assert assoc_V(1, CANON) == RatPoly((F(-115, 216), 1))
    assert assoc_V(2, CANON) == RatPoly((F(11621, 55296), F(-187, 180), 1))
    shifted = AJParams(CANON.alpha, CANON.beta, CANON.c + 1)
    assert assoc_V(1, shifted) == RatPoly((F(-547, 1080), 1))


def test_printed_calv_tables():
    assert assoc_calV(1, CANON) == RatPoly((F(-187, 864), 1))
    assert assoc_calV(2, CANON) == RatPoly(
        (F(124729, 2488320), F(-347, 480), 1)
    )
    other = S_SET[2]
    assert assoc_calV(1, other) == RatPoly((F(-475, 864), 1))
    assert assoc_calV(2, other) == RatPoly((F(108965, 497664), F(-169, 160), 1))


def test_v_is_shared_across_the_quadruple():
    for n in range(11):
        polys = [assoc_V(n, p) for p in S_SET]
        assert all(q == polys[0] for q in polys)


def test_calv_pairs_by_second_parameter():
    for n in range(11):
        assert assoc_calV(n, S_SET[0]) == assoc_calV(n, S_SET[1])
        assert assoc_calV(n, S_SET[2]) == assoc_calV(n, S_SET[3])
    assert assoc_calV(1, S_SET[0]) != assoc_calV(1, S_SET[2])


def test_rates_at_the_canonical_triple():
    # index 0 here lines up with the degree-1 seed: V_1 = x - (lam + mu)
    lam, mu = aj_rates(CANON, 0, Variant.V)
    assert lam == F(187, 864)
    assert mu == F(91, 288)
    assert lam + mu == F(115, 216)
    assert aj_rates(CANON, 0, Variant.CALV) == (F(187, 864), F(0))
    c, a, b = CANON.c, CANON.alpha, CANON.beta
    assert mu == c * (c + a) / ((2 * c + a + b) * (2 * c + a + b + 1))


def _aj_rates_reference(params, n, variant):
    """Oracle: the rates by Fraction arithmetic on the parameters, straight
    from the closed form."""
    variant = variant if isinstance(variant, Variant) else Variant(str(variant))
    if n < 0:
        raise DomainError("index must be nonnegative")
    a, b, c = params.alpha, params.beta, params.c
    s = 2 * n + 2 * c + a + b
    lam_num = n + c + b + 1
    lam_den = s + 2
    if n + c != 0:  # at n + c = 0 the factor n + c + a + b + 1 is s + 1 and cancels
        lam_num *= n + c + a + b + 1
        lam_den *= s + 1
    if lam_den == 0:
        raise DomainError("lambda denominator vanishes at index %d" % n)
    lam = lam_num / lam_den
    if n == 0:
        if variant is Variant.CALV:
            return lam, F(0)
        if s * (s + 1) == 0:
            raise DomainError("mu denominator vanishes at index 0")
        return lam, c * (c + a) / (s * (s + 1))
    if s * (s + 1) == 0:
        raise DomainError("mu denominator vanishes at index %d" % n)
    return lam, (n + c) * (n + c + a) / (s * (s + 1))


def _rates_outcome(params, n, variant):
    try:
        rates = aj_rates(params, n, variant)
    except DomainError as exc:
        return "DomainError", str(exc)
    assert type(rates) is tuple and [type(r) for r in rates] == [F, F]
    return rates


def _reference_outcome(params, n, variant):
    try:
        return _aj_rates_reference(params, n, variant)
    except DomainError as exc:
        return "DomainError", str(exc)


_VARIANTS = (Variant.V, Variant.CALV, "V", "calV")


def test_rates_match_the_fraction_reference_on_a_grid_with_poles():
    grid = (F(-2), F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2), F(2, 3))
    poles = cancellations = 0
    for alpha in grid:
        for beta in grid:
            for c in grid:
                params = AJParams(alpha, beta, c)
                for variant in _VARIANTS:
                    for n in range(-1, 13):
                        want = _reference_outcome(params, n, variant)
                        assert _rates_outcome(params, n, variant) == want, (params, n, variant)
                        poles += want[0] == "DomainError" and n >= 0
                        cancellations += n + c == 0
    assert poles > 500 and cancellations > 500


def test_rates_match_the_fraction_reference_on_the_quadruple():
    for params in S_SET:
        for variant in _VARIANTS:
            for n in range(301):
                assert _rates_outcome(params, n, variant) == _reference_outcome(params, n, variant)


def test_rates_degenerate_denominator():
    with pytest.raises(DomainError, match="^mu denominator vanishes at index 0$"):
        aj_rates(AJParams(F(0), F(0), F(0)), 0, Variant.V)


def test_recurrence_degenerate_index():
    # alpha + beta + 2c = -5: s = -1 at index 2, where lambda_2 divides by s + 1 = 0
    params = AJParams(F(0), F(0), F(-5, 2))
    assert assoc_V(2, params).degree() == 2
    with pytest.raises(DomainError, match="^lambda denominator vanishes at index 2$"):
        assoc_V(3, params)
    with pytest.raises(DomainError, match="^lambda denominator vanishes at index 2$"):
        assoc_calV(40, params)


def test_explicit_forms_match_recurrences():
    for params in S_SET:
        for n in range(13):
            assert wimp_V_explicit(n, params) == assoc_V(n, params)
            assert im_calV_explicit(n, params) == assoc_calV(n, params)


def _explicit_pref_reference(n, params):
    a, b, c = params
    den = pochhammer(a + b + 2 * c + n + 1, n) * math.factorial(n)
    if den == 0:
        raise DomainError("prefactor denominator vanishes at degree %d" % n)
    return F(-1) ** n * pochhammer(c + 1, n) * pochhammer(b + c + 1, n) / den


def _explicit_form_reference(n, params, drop):
    """Oracle: Wimp's explicit form in Fraction arithmetic, one pfq per
    power of x, with the checks of the integer form in the same order."""
    a, b, c = params
    pref = _explicit_pref_reference(n, params)
    ck = F(1)
    coeffs = []
    for k in range(n + 1):
        f43 = pfq(
            (F(k - n), n + k + a + b + 2 * c + 1, c + b + drop, c),
            (k + b + c + 1, k + c + 1, a + b + 2 * c + drop),
            1,
        )
        if k:
            den = (c + k) * (c + b + k)
            if den == 0:
                raise DomainError("coefficient denominator vanishes at power %d" % k)
            ck *= (k - 1 - n) * (n + k + a + b + 2 * c) / den
        coeffs.append(pref * ck * f43)
    return RatPoly(coeffs)


def _explicit_outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return "DomainError", str(exc)


def test_explicit_forms_match_the_fraction_reference():
    rng = random.Random(1987)
    pool = [F(3, 7), F(-5, 9), F(2, 11), F(-1, 2), F(7, 12), F(-13, 6), F(0), F(-1), F(-3), F(2)]
    messages = set()
    for _ in range(120):
        params = AJParams(*(rng.choice(pool) for _ in range(3)))
        n = rng.randint(0, 9)
        for form, drop in ((wimp_V_explicit, 0), (im_calV_explicit, 1)):
            want = _explicit_outcome(_explicit_form_reference, n, params, drop)
            assert _explicit_outcome(form, n, params) == want, (n, params, drop)
            if isinstance(want, tuple):
                messages.add(want[1].split()[0])
    # each failure the forms can raise was drawn
    assert messages == {"prefactor", "coefficient", "denominator"}


def test_explicit_forms_name_the_degenerate_power():
    # (c + 1)_k (c + b + 1)_k first vanishes at k = 3, where c + b + 3 = 0
    params = AJParams(F(-2), F(-3), F(0))
    for form in (wimp_V_explicit, im_calV_explicit):
        with pytest.raises(DomainError, match="^coefficient denominator vanishes at power 3$"):
            form(5, params)


def test_second_solution_shift():
    """V_{n-1} at c+1 solves the same recurrence as V_n at c: running the
    (alpha, beta, c) recurrence on W_n := V_{n-1}(x; c+1), W_0 := 0,
    reproduces the shifted family."""
    shifted = AJParams(CANON.alpha, CANON.beta, CANON.c + 1)
    w = {0: RatPoly(), 1: RatPoly.one()}
    for n in range(1, 11):
        lam, mu = aj_rates(CANON, n, Variant.V)
        lam_prev = aj_rates(CANON, n - 1, Variant.V)[0]
        w[n + 1] = combine(1, -(lam + mu), w[n], -lam_prev * mu, w[n - 1])
        assert w[n + 1] == assoc_V(n, shifted)


def test_one_cached_engine_per_triple_and_variant():
    engine = _family(CANON, Variant.V)
    assert _family(AJParams(F(1, 2), F(-2, 3), F(7, 12)), Variant.V) is engine
    assert _family(CANON, Variant.CALV) is not engine
    assert assoc_V(4, CANON) is engine.poly(4)
    # the representations read their members from the same engines
    atkin_via_representation(30, "Rep2")
    for variant in Variant:
        assert len(_family(S_SET[2], variant)._members) >= 31


def test_representations_two_and_three():
    for n in range(21):
        target = atkin_normalized(n + 1)
        assert atkin_via_representation(n, "Rep2") == target
        assert atkin_via_representation(n, "Rep3") == target


def test_representation_one_with_derived_scalar():
    assert REP1_DEFAULT_COEFF == F(455, 3456)
    for n in range(21):
        assert atkin_via_representation(n, "Rep1") == atkin_normalized(n + 1)
    # at n = 0 the scalar multiplies the zero member
    for kappa in (0, F(91, 384), -7):
        assert atkin_via_representation(0, "Rep1", rep1_coeff=kappa) == RatPoly((F(-5, 12), 1))


def test_representation_one_printed_scalar_fails():
    # 91/384 circulates as the scalar; it already fails at n = 1
    bad = atkin_via_representation(1, "Rep1", rep1_coeff=F(91, 384))
    target = atkin_normalized(2)
    assert bad != target
    # and only the constant term is off
    assert bad.coeffs[1:] == target.coeffs[1:]
    # at any scalar the representation is the schoolbook combination
    shifted = AJParams(CANON.alpha, CANON.beta, CANON.c + 1)
    for n in range(9):
        for kappa in (0, F(91, 384), -7):
            w = assoc_V(n - 1, shifted) if n else RatPoly()
            want = combine(1, F(-5, 12), assoc_V(n, CANON), -kappa, w)
            assert atkin_via_representation(n, "Rep1", rep1_coeff=kappa) == want


def test_rep1_solved_scalar_is_constant():
    for n in range(1, 21):
        assert rep1_solved_coeff(n) == F(455, 3456)
    with pytest.raises(DomainError):
        rep1_solved_coeff(0)


def test_rep1_coeff_rejected_elsewhere():
    with pytest.raises(DomainError):
        atkin_via_representation(2, "Rep2", rep1_coeff=F(1, 2))


def test_explicit_atkin_form():
    for n in range(16):
        assert ourrep_explicit(n) == atkin_normalized(n + 1)


def test_contiguous_contraction_identity():
    """The two-term combination with parameters -1/12, 7/12 on the left
    contracts to the 6/5, -1/5 combination carrying -5/12; exact at
    argument 1 for all 0 <= k <= n <= 8."""
    for n in range(9):
        for k in range(n + 1):
            lhs = pfq(
                (F(k - n), F(n + k + 2), F(-1, 12), F(7, 12)),
                (k + F(11, 12), k + F(19, 12), F(1)),
                F(1),
            )
            if k < n:
                lhs -= (
                    F(5, 12)
                    * (k - n)
                    * (n + k + 2)
                    / ((k + F(19, 12)) * (k + F(11, 12)))
                    * pfq(
                        (F(k + 1 - n), F(n + k + 3), F(11, 12), F(7, 12)),
                        (k + 1 + F(11, 12), k + 1 + F(19, 12), F(2)),
                        F(1),
                    )
                )
            rhs = F(6, 5) * pfq(
                (F(k - n), F(n + k + 2), F(11, 12), F(-5, 12)),
                (k + F(11, 12), k + F(19, 12), F(1)),
                F(1),
            ) - F(1, 5) * pfq(
                (F(k - n), F(n + k + 2), F(-1, 12), F(-5, 12)),
                (k + F(11, 12), k + F(19, 12), F(1)),
                F(1),
            )
            assert lhs == rhs


def test_explicit_prefactor_shape():
    # leading coefficient of the explicit double sum is forced to 1
    for params in S_SET:
        p = wimp_V_explicit(5, params)
        assert p.coeffs[-1] == 1
        assert p.degree() == 5
