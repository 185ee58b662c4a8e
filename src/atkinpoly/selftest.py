"""Acceptance suite: one callable per criterion, each returning a
CriterionResult.  The checks mirror the package's external contract;
tests and the CLI selftest subcommand both run them.
"""

from __future__ import annotations

import functools
import math
import time
from collections import namedtuple
from fractions import Fraction

from . import assoc_jacobi as aj
from . import genfun, supersingular, weight
from .atkin import (
    _three_term,
    atkin,
    atkin_at_one,
    atkin_at_zero,
    atkin_normalized,
    kz_explicit,
)
from .errors import DomainError, InternalInconsistency
from .exact import catalan, pochhammer
from .fp import FpPoly
from .hypergeom import atkin_asymptotic, atkin_normalized_value, buv_combination
from .ratpoly import RatPoly, poly_eval

_F = Fraction


class CriterionResult(namedtuple("CriterionResult", "number passed detail elapsed")):
    __slots__ = ()


def _criterion(body):
    """Criterion N from the body criterion_N(check), which calls
    check(ok, message) for each check and returns the detail of a pass;
    the criterion times the body and builds its CriterionResult."""
    number = int(body.__name__.rpartition("_")[2])

    @functools.wraps(body)
    def run() -> CriterionResult:
        t0 = time.perf_counter()
        fails: list = []

        def check(ok: bool, message: str):
            if not ok:
                fails.append(message)

        ok_detail = body(check)
        elapsed = time.perf_counter() - t0
        if fails:
            return CriterionResult(number, False, "; ".join(fails[:6]), elapsed)
        return CriterionResult(number, True, ok_detail, elapsed)

    return run


@_criterion
def criterion_1(check) -> str:
    """Exact reproduction of every concretely printed polynomial."""
    check(atkin(0) == RatPoly((1,)), "A_0")
    check(atkin(1) == RatPoly((-720, 1)), "A_1")
    check(atkin(2) == RatPoly((269280, -1640, 1)), "A_2")
    check(atkin_normalized(1) == RatPoly((_F(-5, 12), 1)), "normalized A_1")
    check(
        atkin_normalized(2) == RatPoly((_F(935, 10368), _F(-205, 216), 1)),
        "normalized A_2",
    )
    check(
        atkin_normalized(3)
        == RatPoly((_F(-124729, 5971968), _F(28277, 55296), _F(-131, 90), 1)),
        "normalized A_3",
    )
    canon = aj.S_SET[1]
    check(aj.assoc_V(1, canon) == RatPoly((_F(-115, 216), 1)), "V_1")
    check(
        aj.assoc_V(2, canon) == RatPoly((_F(11621, 55296), _F(-187, 180), 1)),
        "V_2",
    )
    shifted = aj.AJParams(canon.alpha, canon.beta, canon.c + 1)
    check(aj.assoc_V(1, shifted) == RatPoly((_F(-547, 1080), 1)), "V_1 at c+1")
    check(aj.assoc_calV(1, canon) == RatPoly((_F(-187, 864), 1)), "calV_1")
    check(
        aj.assoc_calV(2, canon)
        == RatPoly((_F(124729, 2488320), _F(-347, 480), 1)),
        "calV_2",
    )
    other = aj.S_SET[2]
    check(aj.assoc_calV(1, other) == RatPoly((_F(-475, 864), 1)), "calV_1 (beta=2/3)")
    check(
        aj.assoc_calV(2, other)
        == RatPoly((_F(108965, 497664), _F(-169, 160), 1)),
        "calV_2 (beta=2/3)",
    )
    return "all printed polynomial tables reproduced exactly"


@_criterion
def criterion_2(check) -> str:
    """Exact cross-validation of all representation formulas."""
    for n in list(range(61)) + [100, 150, 200]:
        if atkin(n) != _three_term(n):
            check(False, "coefficient recurrence at n=%d" % n)
    for n in range(21):
        target = _three_term(n + 1, normalized=True)
        if aj.atkin_via_representation(n, "Rep2") != target:
            check(False, "Rep2 at n=%d" % n)
        if aj.atkin_via_representation(n, "Rep3") != target:
            check(False, "Rep3 at n=%d" % n)
    for n in range(21):
        if kz_explicit(n) != _three_term(n, normalized=True):
            check(False, "double-binomial form at n=%d" % n)
    for n in range(16):
        if aj.ourrep_explicit(n) != _three_term(n + 1, normalized=True):
            check(False, "hypergeometric representation at n=%d" % n)
    for params in aj.S_SET:
        for n in range(13):
            if aj.wimp_V_explicit(n, params) != aj.assoc_V(n, params):
                check(False, "V explicit at %r n=%d" % (params, n))
            if aj.im_calV_explicit(n, params) != aj.assoc_calV(n, params):
                check(False, "calV explicit at %r n=%d" % (params, n))
    return (
        "coefficient recurrence equals the three-term recurrence (n<=60, 100, 150, 200), "
        "Rep2/Rep3 (n<=20), double-binomial (n<=20), hypergeometric (n<=15), V/calV explicit (all triples, n<=12) all exact"
    )


def rep1_solved_coeff(n: int) -> Fraction:
    """The scalar that makes the first representation exact at degree n+1.

    Diagnostic: solves for the coefficient of V_{n-1}(x; c+1) by matching
    Rep1 at scalar 0 against the recurrence-built Atkin polynomial, then
    checks that the whole difference really is that single multiple.
    """
    if n < 1:
        raise DomainError("the scalar only enters for n >= 1")
    canon = aj.S_SET[1]
    head = aj.atkin_via_representation(n, "Rep1", rep1_coeff=0).coeffs
    diff = [a - b for a, b in zip(head, _three_term(n + 1, normalized=True).coeffs)]
    w = aj.assoc_V(n - 1, canon._replace(c=canon.c + 1)).coeffs
    kappa = diff[n - 1]  # w is monic of degree n-1
    if diff != [kappa * c for c in w] + [0, 0]:
        raise InternalInconsistency(
            "difference at n=%d is not a scalar multiple of the shifted polynomial" % n
        )
    return kappa


@_criterion
def criterion_3(check) -> str:
    """First-representation diagnostic: derived scalar works, printed fails."""
    for n in range(21):
        if aj.atkin_via_representation(n, "Rep1") != _three_term(n + 1, normalized=True):
            check(False, "scalar 455/3456 fails at n=%d" % n)
    bad = aj.atkin_via_representation(1, "Rep1", rep1_coeff=_F(91, 384))
    detected = bad != _three_term(2, normalized=True)
    check(detected, "printed scalar 91/384 was not detected as failing at n=1")
    solved = rep1_solved_coeff(1)
    check(
        solved == _F(455, 3456),
        "solved scalar at n=1 is %s, not 455/3456" % solved,
    )
    return (
        "scalar 455/3456 exact for n<=20; printed 91/384 detected failing at n=1 "
        "(solved value from matching: 455/3456)"
    )


@_criterion
def criterion_4(check) -> str:
    """Exact endpoint values and coefficient-level generating identities."""
    # (x, value at x, leading constant, upper parameter); (2x - 1)^n flips t to -t at x = 0
    endpoints = (
        (0, atkin_at_zero, _F(-5, 12), _F(17, 12)),
        (1, atkin_at_one, _F(7, 12), _F(19, 12)),
    )
    for n in range(1, 31):
        p = atkin_normalized(n)
        for x, value_at, _, _ in endpoints:
            check(poly_eval(p, _F(x)) == value_at(n), "value at %d, degree %d" % (x, n))
    for n in range(21):
        for x, value_at, lead, upper in endpoints:
            lhs = catalan(n + 1) * value_at(n + 1) * (2 * x - 1) ** n
            rhs = (
                lead
                * pochhammer(_F(11, 12), n)
                * pochhammer(upper, n)
                / (pochhammer(_F(3), n) * math.factorial(n))
            )
            check(lhs == rhs, "x=%d series coefficient at n=%d" % (x, n))
    return "endpoint values (n<=30) and generating-series coefficients (n<=20) exact"


@_criterion
def criterion_5(check) -> str:
    """Numeric generating-function identities at the stated points."""
    lhs, rhs = genfun.fjk_check(0.3, 1.1, 0.9, 0.25, 0.2, 60)
    check(abs(lhs - rhs) <= 1e-10, "summation identity residual %.3e" % abs(lhs - rhs))
    for x, t in ((0.25, 0.2), (0.6, 0.1)):
        r = genfun.gen_uy_check(aj.S_SET[1], x, t, 50)
        du = abs(r.u_partial_sum - r.u_closed_form)
        dy = abs(r.y_partial_sum - r.y_closed_form)
        check(du <= 1e-8, "U generating residual %.3e at (%.2f, %.2f)" % (du, x, t))
        check(dy <= 1e-8, "Y generating residual %.3e at (%.2f, %.2f)" % (dy, x, t))
    for x, t in ((0.3, 0.2), (0.7, 0.1)):
        lhs, rhs = genfun.catalan_gen_check(x, t, 50)
        check(
            abs(lhs - rhs) <= 1e-8,
            "Catalan-weighted residual %.3e at (%.1f, %.1f)" % (abs(lhs - rhs), x, t),
        )
    return "summation identity, U/Y and Catalan-weighted generating functions within stated tolerances"


@_criterion
def criterion_6(check) -> str:
    """Asymptotics as properties, plus the pointwise two-solution identity."""
    theta = 1.0
    x = math.sin(theta) ** 2
    rel = {}
    for n in (50, 200):
        appr = atkin_asymptotic(n, theta)
        exact = atkin_normalized_value(n + 1, x)
        rel[n] = abs(appr - exact) / abs(exact)
    check(rel[200] <= 5e-2, "relative error %.3f at n=200" % rel[200])
    check(
        rel[200] < rel[50],
        "error does not shrink: %.3e at 200 vs %.3e at 50" % (rel[200], rel[50]),
    )
    phase = 2.0 * 201 * theta
    c1 = math.cos(phase + math.pi / 12.0)
    c2 = math.cos(phase - 7.0 * math.pi / 12.0)
    check(
        abs(c1) > 0.3 and abs(c2) > 0.3,
        "cosine factors %.3f, %.3f not bounded away from zero at n=200" % (c1, c2),
    )
    worst = 0.0
    for n in range(9):
        for xv in (0.1, 0.25, 0.5, 0.7, 0.9):
            b = buv_combination(n, xv)
            a = atkin_normalized_value(n + 1, xv)
            worst = max(worst, abs(b - a) / max(1.0, abs(a)))
    check(worst <= 1e-6, "two-solution identity residual %.3e" % worst)
    return (
        "asymptotic error %.4f at n=200 (< %.4f at n=50), cosine factors clear of zero, "
        "pointwise identity residual %.1e" % (rel[200], rel[50], worst)
    )


@_criterion
def criterion_7(check) -> str:
    """Weight normalization, moments, Gram orthogonality, angle map."""
    m0 = weight.quad_integrate(weight.weight_w)
    check(abs(m0 - 1.0) <= 1e-8, "total mass %.12f" % m0)
    m1 = weight.quad_integrate(lambda j: j * weight.weight_w(j))
    check(abs(m1 - 720.0) <= 1e-5 * 720.0, "first moment %.6f" % m1)
    diag = [weight.gram(n, n) for n in range(6)]
    check(
        abs(diag[1] - 393120.0) <= 1e-6 * 393120.0,
        "norm of degree 1: %.4f" % diag[1],
    )
    for m in range(6):
        for n in range(m + 1, 6):
            off = abs(weight.gram(m, n)) / math.sqrt(diag[m] * diag[n])
            check(off <= 1e-7, "normalized gram(%d,%d) = %.3e" % (m, n, off))
    for n in range(1, 6):
        if n == 1:
            b_n = 393120.0
        else:
            b_n = float(
                _F(36 * (12 * n - 13) * (12 * n - 7) * (12 * n - 5) * (12 * n + 1))
                / (n * (n - 1) * (2 * n - 1) ** 2)
            )
        ratio = diag[n] / diag[n - 1]
        check(
            abs(ratio - b_n) <= 1e-5 * abs(b_n),
            "diagonal ratio at n=%d: %.6g vs %.6g" % (n, ratio, b_n),
        )
    check(abs(weight.phi(0.0) - math.pi / 3.0) <= 1e-9, "phi(0)")
    check(abs(weight.phi(1.0) - math.pi / 2.0) <= 1e-9, "phi(1)")
    for k in range(1, 10):
        r = weight.wronskian_residual(k / 10.0)
        check(r <= 1e-9, "Wronskian residual %.3e at J=%.1f" % (r, k / 10.0))
    return "mass 1, first moment 720, Gram diagonal/off-diagonal, angle endpoints, Wronskian all within tolerance"


@_criterion
def criterion_8(check) -> str:
    """Supersingular reduction match for all primes up to 97."""
    check(supersingular.ss_poly(5) == FpPoly(5, (0, 1)), "p=5 table")
    check(supersingular.ss_poly(7) == FpPoly(7, (1, 1)), "p=7 table")
    check(supersingular.ss_poly(11) == FpPoly(11, (0, 10, 1)), "p=11 table")
    check(supersingular.ss_poly(13) == FpPoly(13, (8, 1)), "p=13 table")
    report = supersingular.match_report(97)
    mismatched = [r for r in report if not r["matched"]]
    check(len(report) == 23, "expected 23 primes, saw %d" % len(report))
    check(
        not mismatched,
        "mismatches at %s" % [r["p"] for r in mismatched],
    )
    return (
        "%d of %d primes reducible and matched, zero mismatches"
        % (len(report) - len(mismatched), len(report))
    )


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all() -> list:
    return [fn() for fn in _CRITERIA]
