"""Small prime-field toolbox: polynomials over F_p."""

from __future__ import annotations


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class FpPoly:
    """Polynomial over F_p, coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime: int, coeffs):
        cs = [c % prime for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.prime = prime
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "FpPoly":
        p = self.prime
        return FpPoly(p, [(i * c) % p for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "FpPoly":
        if self.is_zero():
            return self
        inv = pow(self.coeffs[-1], self.prime - 2, self.prime)
        return FpPoly(self.prime, [c * inv for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.prime == other.prime
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.prime, self.coeffs))

    def __repr__(self):
        return "FpPoly(%d, %r)" % (self.prime, list(self.coeffs))


def fp_divmod(f: FpPoly, g: FpPoly):
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p = f.prime
    rem = list(f.coeffs)
    quo = [0] * max(0, len(rem) - len(g.coeffs) + 1)
    ginv = pow(g.coeffs[-1], p - 2, p)
    gd = g.degree()
    while len(rem) - 1 >= gd and rem:
        k = len(rem) - 1 - gd
        q = (rem[-1] * ginv) % p
        quo[k] = q
        for i, gc in enumerate(g.coeffs):
            rem[k + i] = (rem[k + i] - q * gc) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return FpPoly(p, quo), FpPoly(p, rem)


def fp_gcd(f: FpPoly, g: FpPoly) -> FpPoly:
    """Monic gcd over F_p."""
    while not g.is_zero():
        f, g = g, fp_divmod(f, g)[1]
    return f.monic()
