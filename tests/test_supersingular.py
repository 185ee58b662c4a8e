"""Reduction check: the supersingular polynomial, Kaneko-Zagier's truncated
2F1 in the package, against two oracles, Deuring's Hasse invariant over F_p
and point counts over F_{p^2}, and against the Atkin family reduced mod p."""

import functools
import json
from math import comb

import pytest

from atkinpoly.errors import DomainError
from atkinpoly.fp import FpPoly, _is_prime, fp_gcd
from atkinpoly.supersingular import atkin_mod_p, match_report, ss_poly
from atkinpoly.atkin import atkin
from atkinpoly.cli import main
from atkinpoly.ratpoly import reduce_mod_p

SMALL_TABLES = {
    5: (0, 1),
    7: (1, 1),
    11: (0, 10, 1),
    13: (8, 1),
}

PRIMES = [p for p in range(5, 200) if _is_prime(p)]
ORACLE_PRIMES = [p for p in PRIMES if p <= 37]


def _smallest_nonresidue(p):
    squares = {(i * i) % p for i in range(p)}
    return next(d for d in range(2, p) if d not in squares)


def _mul(x, y, p, d):
    """Product of a + b u and c + e u in F_p[u]/(u^2 - d)."""
    return (x[0] * y[0] + d * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p


@functools.cache
def _supersingular_js(p):
    """Point-count oracle, O(p^4): every supersingular j-invariant in
    F_{p^2}, as (a, b) pairs with j = a + b u, u^2 = d.

    A curve with the given j is built and its points counted with a
    quadratic-character table; it is supersingular exactly when p divides
    its trace, which does not depend on the twist.  Cached per prime.
    """
    d = _smallest_nonresidue(p)
    # element a + b u has index a*p + b
    elems = [(a, b) for a in range(p) for b in range(p)]
    chi = [-1] * (p * p)
    for x in elems:
        a, b = _mul(x, x, p, d)
        chi[a * p + b] = 1
    chi[0] = 0
    # each x with its cube and d times its u-part
    cubes = [x + _mul(_mul(x, x, p, d), x, p, d) + (d * x[1],) for x in elems]

    def inv(a, b):
        dinv = pow((a * a - d * b * b) % p, p - 2, p)
        return (a * dinv) % p, (-b * dinv) % p

    out = []
    for ja, jb in elems:
        # y^2 = x^3 + A x + B with j(A, B) = (ja, jb)
        if ja == 0 and jb == 0:
            A, B = (0, 0), (1, 0)
        elif ja == 1728 % p and jb == 0:
            A, B = (1, 0), (0, 0)
        else:
            inverse = inv((1728 - ja) % p, (-jb) % p)
            A = _mul((3 * ja, 3 * jb), inverse, p, d)
            B = _mul((2 * ja, 2 * jb), inverse, p, d)
        (aa, ab), (ba, bb) = A, B
        # trace of Frobenius is -sum chi(f(x)); supersingular iff p | trace
        trace = sum(
            chi[(ca + aa * xa + ab * dxb + ba) % p * p + (cb + aa * xb + ab * xa + bb) % p]
            for xa, xb, ca, cb, dxb in cubes
        )
        if trace % p == 0:
            out.append((ja, jb))
    return tuple(out), d


def _roots_in_fp2(f: FpPoly, d: int):
    p = f.prime
    roots = []
    for a in range(p):
        for b in range(p):
            acc = (0, 0)
            for c in reversed(f.coeffs):
                acc = _mul(acc, (a, b), p, d)
                acc = ((acc[0] + c) % p, acc[1])
            if acc == (0, 0):
                roots.append((a, b))
    return roots


def _hasse_coeffs(p):
    """Hasse invariant of y^2 = x^3 + 3t x + 2t as ascending coefficients
    in t, with its power of t (the singular curve t = 0) divided out.

    By Deuring's criterion (Silverman, AEC, Thm V.4.1(b)) the curve
    y^2 = f(x) is supersingular exactly when the coefficient of x^(p-1) in
    f(x)^((p-1)/2) vanishes mod p.  With m = (p-1)/2, the term
    x^(3i) (3t x)^(p-1-3i) (2t)^(2i-m) of f^m has x-degree p-1 and t-degree
    m-i.  Every coefficient is a multinomial of numbers below p times
    powers of 2 and 3, so none vanishes mod p; in particular the first and
    last do not, so the substituted polynomial has no root at j = 0 or
    j = 1728.
    """
    m = (p - 1) // 2
    lo, hi = (m + 1) // 2, (p - 1) // 3
    # i = hi gives the lowest power of t; i descends as the power rises
    return [
        comb(m, i) * comb(m - i, p - 1 - 3 * i) * pow(3, p - 1 - 3 * i, p) * pow(2, 2 * i - m, p) % p
        for i in range(hi, lo - 1, -1)
    ]


def _ss_poly_by_hasse(p):
    """Oracle independent of Kaneko-Zagier and of the rates: the family
    y^2 = x^3 + 3t x + 2t has j = 1728 t / (1 + t), so its Hasse invariant
    with t = j/(1728 - j) substituted, by the binomial theorem (coefficient
    n of sum_k h_k j^k (1728 - j)^(d-k)), gives the supersingular
    j-invariants other than 0 and 1728, which join by their congruences."""
    h = _hasse_coeffs(p)
    d = len(h) - 1
    coeffs = [
        pow(1728, d - n, p) * sum(h[k] * comb(d - k, n - k) * (-1) ** (n - k) for k in range(n + 1))
        for n in range(d + 1)
    ]
    out = list(FpPoly(p, coeffs).monic().coeffs)
    if p % 3 == 2:  # j = 0
        out = [0] + out
    if p % 4 == 3:  # j = 1728
        out = [a - 1728 * b for a, b in zip([0] + out, out + [0])]
    return FpPoly(p, out)


def test_ss_poly_is_the_hasse_invariant_substituted():
    # below 1000 every residue mod 12 occurs, so every case of j = 0, 1728
    primes = [p for p in range(5, 1000) if _is_prime(p)]
    assert {p % 12 for p in primes} == {1, 5, 7, 11}
    for p in primes:
        assert ss_poly(p) == _ss_poly_by_hasse(p), p


def test_ss_poly_at_a_five_digit_prime():
    p = 10007
    f = ss_poly(p)
    assert f.degree() == p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]
    assert f.coeffs[-1] == 1


def test_small_prime_tables():
    for p, coeffs in SMALL_TABLES.items():
        assert ss_poly(p) == FpPoly(p, coeffs)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_roots_are_the_point_count_locus(p):
    js, d = _supersingular_js(p)
    assert sorted(_roots_in_fp2(ss_poly(p), d)) == sorted(js)


def test_ss_poly_monic_and_squarefree():
    for p in PRIMES:
        f = ss_poly(p)
        assert f.coeffs[-1] == 1
        g = fp_gcd(f, f.derivative())
        assert g.degree() == 0  # distinct roots


def test_degree_tracks_p_over_twelve():
    for p in PRIMES:
        assert ss_poly(p).degree() == p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def test_locus_closed_under_conjugation():
    # the j-invariants come in base-field points and conjugate pairs
    for p in (13, 23, 37):
        js, _d = _supersingular_js(p)
        pts = set(js)
        for a, b in pts:
            assert (a, (-b) % p) in pts


def test_invalid_primes_rejected():
    for bad in (2, 3, 4, 9, 15):
        with pytest.raises(DomainError, match="^p must be a prime >= 5, got %d$" % bad):
            ss_poly(bad)
    with pytest.raises(DomainError, match="^p must be prime, got 6$"):
        atkin_mod_p(3, 6)


def test_atkin_mod_p():
    assert atkin_mod_p(2, 5) == reduce_mod_p(atkin(2), 5)
    assert atkin_mod_p(2, 5) == FpPoly(5, (0, 0, 1))


def test_match_report_small():
    report = match_report(37)
    by_p = {r["p"]: r for r in report}
    assert sorted(by_p) == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for r in report:
        assert r["matched"] is True
        assert set(r) == {"p", "deg_ss", "matched"}
    assert by_p[11]["deg_ss"] == 2


def test_match_report_up_to_the_cap():
    # the command line's --pmax cap: deg ss_p <= (p + 13)/12 stays within
    # its exact degree cap of 200, reached by the largest prime, 2393
    report = match_report(2398)
    assert [r["p"] for r in report] == [p for p in range(5, 2399) if _is_prime(p)]
    assert len(report) == 354
    assert all(r["matched"] is True for r in report)
    assert report[-1] == {"p": 2393, "deg_ss": 200, "matched": True}


def test_match_report_limit(capsys):
    # match_report takes any p_max; the command line bounds it by the
    # exact degree cap, and 2399 would need degree 201
    assert main(["supersingular", "--pmax", "2399"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("atkinpoly: error: ")
    assert main(["supersingular", "--pmax", "2398"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["records"]) == 354
