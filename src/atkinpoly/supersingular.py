"""Number-theoretic cross-check: the degree-n monic polynomial reduced
mod p against the supersingular polynomial computed from scratch.

The supersingular side never touches the recurrence and never leaves
F_p.  Kaneko and Zagier (1998) give ss_p as a truncated hypergeometric
series: write p - 1 = 12m + 4 delta + 6 eps with delta = [p = 2 mod 3]
and eps = [p = 3 mod 4]; then

    ss_p(j) = j^delta (j - 1728)^eps sum_{i <= m} t_i j^(m - i),

with t_0 = 1 and t_{i+1} = t_i 12 (1 + 6 eps + 12 i)(5 + 6 eps + 12 i)
/ (i + 1)^2, the 2F1 with parameters (1/12, 5/12) shifted by eps/2,
truncated at degree m and read in 1728/j.  The factors j and j - 1728
are the supersingular j = 0 and j = 1728, present exactly on those
congruences.  Every divisor i + 1 is at most m < p, so it is invertible
mod p, and t_0 = 1 makes the result monic.  O(p) operations in F_p.
"""

from .atkin import _three_term
from .errors import DomainError
from .fp import FpPoly, _is_prime
from .ratpoly import reduce_mod_p


def ss_poly(p: int) -> FpPoly:
    """Monic squarefree polynomial over F_p with exactly the supersingular
    j-invariants of characteristic p as roots."""
    if p < 5 or not _is_prime(p):
        raise DomainError("p must be a prime >= 5, got %r" % p)
    delta, eps = p % 3 == 2, p % 4 == 3
    out = [1]  # t_0, t_1, ..., t_m, the coefficients of j^m, j^(m-1), ..., 1
    for i in range((p - 1 - 4 * delta - 6 * eps) // 12):
        out.append(out[-1] * 12 * (1 + 6 * eps + 12 * i) * (5 + 6 * eps + 12 * i) * pow(i + 1, -2, p) % p)
    out.reverse()  # ascending in j
    if delta:  # j = 0
        out = [0] + out
    if eps:  # j = 1728
        out = [a - 1728 * b for a, b in zip([0] + out, out + [0])]
    return FpPoly(p, out)


def atkin_mod_p(n: int, p: int) -> FpPoly:
    """Reduction of the degree-n monic polynomial modulo p, A_n from the
    three-term recurrence (``atkin._three_term``), not from ``atkin(n)``."""
    return reduce_mod_p(_three_term(n), p)


def match_report(p_max: int):
    """Records {p, deg_ss, matched} for 5 <= p <= p_max, matched telling
    whether A_n mod p equals ss_p at n = deg ss_p.  That reduction exists:
    the denominators of A_n divide the product of m(2m - 1)(2m + 1) over
    m <= n, and n <= (p + 13)/12 keeps every factor below p."""
    report = []
    for p in range(5, p_max + 1):
        if not _is_prime(p):
            continue
        ss = ss_poly(p)
        n = ss.degree()
        report.append({"p": p, "deg_ss": n, "matched": atkin_mod_p(n, p) == ss})
    return report
