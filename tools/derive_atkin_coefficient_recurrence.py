"""Derive the recurrence in the coefficient index that ``atkin.atkin`` runs.

    PYTHONPATH=src python3 tools/derive_atkin_coefficient_recurrence.py

Needs sympy, so the package does not import this script and tier-1 does not
run it; a CI job of its own does.

The normalized A_n(x) is sum_{i <= n} h_i x^(n-i) with h_i = [t^i] F G,
F = 2F1(1/12, 5/12; 1; t) and G = 2F1(-n - 1/12, 7/12 - n; 1 - 2n; t): the
inner sum of Kaneko-Zagier's double binomial sum is a Cauchy product.  A
Gauss function y = 2F1(a, b; c; t) satisfies

    theta (theta + c - 1) y = t (theta + a)(theta + b) y,    theta = t d/dt,

so theta^2 y is a combination of y and theta y over Q(n, t).  The powers
theta^0..theta^4 of FG then lie in the span of FG, (theta F) G,
F (theta G), (theta F)(theta G); the one relation among those five
vectors is an order-4 operator sum_k P_k(t) theta^k annihilating FG.  With
theta^k t^i = i^k t^i, the coefficient of t^i in P_k(t) theta^k (FG) is
sum_j [t^j] P_k (i - j)^k h_{i-j}, which gives

    c0 h_i + c1 h_{i-1} + c2 h_{i-2} + c3 h_{i-3} = 0.

The script prints c0..c3, factored, in i and n, and again in k = i - n,
the form the module docstring of ``atkin`` gives.  It then steps c0..c3
from h_0 = 1 in exact rationals for every n <= 30 and asserts that the
result is ``atkinpoly.atkin_normalized(n)``, which ``atkin`` builds with
its own folded integer constants, so the derivation and the recurrence
the package runs cannot drift apart.
"""

from fractions import Fraction

import sympy as sp

from atkinpoly import atkin_normalized

n, t, i, k = sp.symbols("n t i k")
R = sp.Rational


def theta_squared(a, b, c):
    """theta^2 y of a Gauss function as (coefficient of theta y, coefficient of y)."""
    return ((a + b) * t - (c - 1)) / (1 - t), a * b * t / (1 - t)


F1, F0 = theta_squared(R(1, 12), R(5, 12), 1)
G1, G0 = theta_squared(-n - R(1, 12), R(7, 12) - n, 1 - 2 * n)


def theta(v):
    """theta of sum v_j b_j on the basis b = (FG, (theta F) G, F theta G, (theta F)(theta G))."""
    a, b, c, d = v
    out = [t * sp.diff(x, t) for x in v]
    out[1] += a  # theta(FG) = (theta F) G + F theta G
    out[2] += a
    out[0] += b * F0  # theta((theta F) G) = (theta^2 F) G + (theta F)(theta G)
    out[1] += b * F1
    out[3] += b
    out[0] += c * G0  # theta(F theta G) = (theta F)(theta G) + F theta^2 G
    out[2] += c * G1
    out[3] += c
    out[2] += d * F0  # theta((theta F)(theta G)) = (theta^2 F)(theta G) + (theta F)(theta^2 G)
    out[3] += d * F1
    out[1] += d * G0
    out[3] += d * G1
    return [sp.cancel(x) for x in out]


def main():
    powers = [[1, 0, 0, 0]]
    for _ in range(4):
        powers.append(theta(powers[-1]))
    [relation] = sp.Matrix([[p[row] for p in powers] for row in range(4)]).nullspace()
    den = sp.lcm([sp.fraction(sp.cancel(x))[1] for x in relation])
    ops = [sp.cancel(x * den) for x in relation]
    content = sp.gcd_list(ops)
    ops = [sp.Poly(sp.cancel(x / content), t) for x in ops]
    degree = max(p.degree() for p in ops)
    cs = [sp.expand(sum(ops[m].coeff_monomial(t**j) * (i - j) ** m for m in range(5))) for j in range(degree + 1)]
    # the sign and scale of the relation are free: take c0 = -864 i^2 n^2 (i - 2n)^2
    scale = -864 * i**2 * n**2 * (i - 2 * n) ** 2 / cs[0]
    assert sp.cancel(scale).is_number
    cs = [sp.expand(sp.cancel(scale) * c) for c in cs]
    for j, c in enumerate(cs):
        print("c%d = %s" % (j, sp.factor(c)))
    print("with k = i - n:")
    for j, c in enumerate(cs):
        print("c%d = %s" % (j, sp.factor(sp.expand(c.subs(i, n + k)))))
    check(cs, 30)


def _evaluator(c):
    """c as a function of the integers (i, n), in exact rationals."""
    terms = [(a, b, Fraction(int(q.p), int(q.q))) for (a, b), q in sp.Poly(c, i, n).terms()]
    return lambda iv, nv: sum(q * iv**a * nv**b for a, b, q in terms)


def check(cs, nmax: int):
    """Step c0 h_i = -(c1 h_{i-1} + c2 h_{i-2} + c3 h_{i-3}) from h_0 = 1,
    with h_{-1} = h_{-2} = 0, and compare with the package's A_n."""
    assert len(cs) == 4, "expected a recurrence of order 3, got %d terms" % len(cs)
    c0, *rest = [_evaluator(c) for c in cs]
    for nv in range(nmax + 1):
        h = [Fraction(1)]
        for iv in range(1, nv + 1):
            back = sum(cj(iv, nv) * h[iv - j] for j, cj in enumerate(rest, 1) if iv >= j)
            h.append(-back / c0(iv, nv))
        assert atkin_normalized(nv).coeffs == tuple(reversed(h)), "c0..c3 disagree with atkin_normalized(%d)" % nv
    print("c0..c3 stepped from h_0 = 1 give atkin_normalized(n) for n <= %d" % nmax)


if __name__ == "__main__":
    main()
