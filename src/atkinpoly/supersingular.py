"""Number-theoretic cross-check: the degree-n monic polynomial reduced
mod p against the supersingular polynomial computed from scratch.

The supersingular side never touches the recurrence and never leaves
F_p.  By Deuring's criterion (Silverman, AEC, Thm V.4.1(b)) the curve
y^2 = f(x) is supersingular exactly when the coefficient of x^(p-1) in
f(x)^((p-1)/2) vanishes mod p.  Applied to the family
y^2 = x^3 + 3t x + 2t, whose j-invariant is 1728 t / (1 + t), that
coefficient is a polynomial in t (the Hasse invariant); substituting
t = j / (1728 - j) gives the supersingular j-invariants other than 0
and 1728, which are added by their congruence conditions.  O(p^2)
operations in F_p per prime.
"""

from __future__ import annotations

from math import comb

from .atkin import atkin
from .errors import DomainError
from .fp import FpPoly
from .ratpoly import reduce_mod_p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _hasse_coeffs(p: int) -> list:
    """Hasse invariant of y^2 = x^3 + 3t x + 2t as ascending coefficients
    in t, with its power of t (the singular curve t = 0) divided out.

    With m = (p-1)/2, the term x^(3i) (3t x)^(p-1-3i) (2t)^(2i-m) of
    f^m has x-degree p-1 and t-degree m-i.  Every coefficient is a
    multinomial of numbers below p times powers of 2 and 3, so none
    vanishes mod p; in particular the first and last do not, so the
    substituted polynomial has no root at j = 0 or j = 1728.
    """
    m = (p - 1) // 2
    lo, hi = (m + 1) // 2, (p - 1) // 3
    # i = hi gives the lowest power of t; i descends as the power rises
    return [
        comb(m, i) * comb(m - i, p - 1 - 3 * i) * pow(3, p - 1 - 3 * i, p) * pow(2, 2 * i - m, p) % p
        for i in range(hi, lo - 1, -1)
    ]


def ss_poly(p: int) -> FpPoly:
    """Monic squarefree polynomial over F_p with exactly the supersingular
    j-invariants of characteristic p as roots."""
    if p < 5 or not _is_prime(p):
        raise DomainError("p must be a prime >= 5, got %r" % p)
    h = _hasse_coeffs(p)
    # (1728 - j)^d H(j / (1728 - j)) = sum_k h_k j^k (1728 - j)^(d-k) is
    # Q_d, by Horner: Q_0 = h_0, Q_k = Q_{k-1} (1728 - j) + h_k j^k
    q = [h[0]]
    for k in range(1, len(h)):
        q = [(1728 * a - b) % p for a, b in zip(q + [0], [0] + q)]
        q[k] = (q[k] + h[k]) % p
    out = list(FpPoly(p, q).monic().coeffs)
    if p % 3 == 2:  # j = 0
        out = [0] + out
    if p % 4 == 3:  # j = 1728
        out = [a - 1728 * b for a, b in zip([0] + out, out + [0])]
    return FpPoly(p, out)


def atkin_mod_p(n: int, p: int) -> FpPoly:
    """Reduction of the degree-n monic polynomial modulo p."""
    if p < 2 or not _is_prime(p):
        raise DomainError("p must be prime, got %r" % p)
    return reduce_mod_p(atkin(n), p)


def match_report(p_max: int):
    """Records {p, deg_ss, matched} for 5 <= p <= p_max, matched telling
    whether A_n mod p equals ss_p at n = deg ss_p.  That reduction exists:
    the denominators of A_n divide the product of m(2m - 1)(2m + 1) over
    m <= n, and n <= (p + 13)/12 keeps every factor below p."""
    if p_max > 200:
        raise DomainError("p_max capped at 200")
    report = []
    for p in range(5, p_max + 1):
        if not _is_prime(p):
            continue
        ss = ss_poly(p)
        n = ss.degree()
        report.append({"p": p, "deg_ss": n, "matched": atkin_mod_p(n, p) == ss})
    return report
