"""Schoolbook Fraction arithmetic on RatPoly values, one operation at a
time: the oracle the tests hold the integer recurrence kernel, the
engines built on it and the representations to."""

from fractions import Fraction as F

from atkinpoly.ratpoly import RatPoly


def combine(a, b, p, c, q):
    """(a x + b) p + c q, for RatPolys p and q and rationals a, b, c."""
    out = [F(0)] * max(len(p.coeffs) + 1, len(q.coeffs))
    for i, v in enumerate(p.coeffs):
        out[i + 1] += a * v
        out[i] += b * v
    for i, v in enumerate(q.coeffs):
        out[i] += c * v
    return RatPoly(out)


def compose(p, a, b):
    """p(a x + b), by Horner's rule."""
    out = RatPoly()
    for c in reversed(p.coeffs):
        out = combine(a, b, out, 1, RatPoly((c,)))
    return out
