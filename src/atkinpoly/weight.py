"""The orthogonality weight on (0, 1728): the lambda constant, the angle
map phi and its derivative, the Wronskian consistency check, singular
endpoint quadrature, and moment/Gram checks for the monic family.

The weight has a j^(-2/3) singularity at 0 and a square-root singularity
at 1728.  Tanh-sinh quadrature absorbs both without a change of
variables; the integration interval is split at 864 so each piece owns
one singular endpoint and the node-to-endpoint distances stay exact in
floating point (0 + small is exact on the left piece, and 1728 - j is
exact by Sterbenz for j in [864, 1728] on the right).
"""

from __future__ import annotations

import functools
import math
from operator import mul

from .atkin import atkin
from .errors import DomainError, InternalInconsistency, NonConvergent
from .hypergeom import f21_near_one, f21_real

_PI = math.pi
_SQRT3 = math.sqrt(3.0)


@functools.cache
def lambda_star() -> float:
    """The weight's normalizing constant, via two gamma-product forms.

    Both forms are evaluated and must agree to 1e-12 relative; the mean
    is returned.  Cached: the forms are computed once per process.
    """
    g = math.gamma
    form1 = g(2.0 / 3.0) * g(5.0 / 12.0) * g(11.0 / 12.0) / (
        g(4.0 / 3.0) * g(1.0 / 12.0) * g(7.0 / 12.0)
    )
    form2 = (2.0 - _SQRT3) * g(2.0 / 3.0) * g(11.0 / 12.0) ** 2 / (
        g(4.0 / 3.0) * g(7.0 / 12.0) ** 2
    )
    if abs(form1 - form2) > 1e-12 * abs(form1):
        raise InternalInconsistency(
            "gamma-product forms disagree: %r vs %r" % (form1, form2)
        )
    lam = 0.5 * (form1 + form2)
    if not 0.0 < lam < 1.0:
        raise InternalInconsistency("lambda constant out of (0, 1): %r" % lam)
    return lam


# relative tolerance of quad_integrate and gram, and the last tanh-sinh
# level tried before giving up
_QUAD_TOLERANCE = 1e-10
_QUAD_LEVEL_CAP = 12
# Largest degree gram takes: the first nine polynomials, whose 45 Gram
# entries the polynomial columns of gram are sized for
MAX_GRAM_DEGREE = 8
# the largest rounding floor quad_integrate's stop test forgives, relative
# to max(1, |sum|): the accuracy it promises (selftest checks the mass at 1e-8)
_FLOOR_CAP = 1e-8


def _f_pair_dist(J: float, one_minus_J: float):
    """The hypergeometric pair (F, F*) entering the weight, with the
    distance to 1 supplied exactly for deep-tail nodes."""
    if one_minus_J >= 0.5:
        f21, x = f21_real, J
    else:
        f21, x = f21_near_one, one_minus_J
    return (
        f21(1.0 / 12.0, 1.0 / 12.0, 2.0 / 3.0, x).value,
        f21(5.0 / 12.0, 5.0 / 12.0, 4.0 / 3.0, x).value,
    )


def f_and_fstar(J: float):
    """The hypergeometric pair (F, F*) entering the weight, at J in [0, 1]."""
    if not 0.0 <= J <= 1.0:
        raise DomainError("J must lie in [0, 1]")
    return _f_pair_dist(J, 1.0 - J)


def _n_parts(j_cuberoot: float, f: float, fstar: float, lam: float):
    # N = F - lam exp(-i pi/3) J^(1/3) F*; real cube root on [0, 1]
    re = f - 0.5 * lam * j_cuberoot * fstar
    im = 0.5 * _SQRT3 * lam * j_cuberoot * fstar
    return re, im


def phi(J: float) -> float:
    """Angle map on [0, 1], increasing from pi/3 to pi/2."""
    f, fs = f_and_fstar(J)
    re, im = _n_parts(J ** (1.0 / 3.0), f, fs, lambda_star())
    return _PI / 3.0 + 2.0 * math.atan2(im, re)


def _phi_prime(J_cuberoot: float, one_minus_J: float, f: float, fs: float, lam: float) -> float:
    # the cube root, not J: j^(1/3)/12 keeps the digits a subnormal j/1728 loses
    re, im = _n_parts(J_cuberoot, f, fs, lam)
    return lam / _SQRT3 / (J_cuberoot * J_cuberoot) / math.sqrt(one_minus_J) / (re * re + im * im)


def wronskian_residual(J: float) -> float:
    """Residual between the series Wronskian of (F, F*) and its closed form."""
    if not 0.0 < J < 1.0:
        raise DomainError("wronskian_residual requires J in (0, 1)")
    lam = lambda_star()
    f, fs = f_and_fstar(J)
    # contiguous derivatives: (ab/c) 2F1(a+1, b+1; c+1; J)
    fp = (1.0 / 96.0) * f21_real(13.0 / 12.0, 13.0 / 12.0, 5.0 / 3.0, J).value
    fsp = (25.0 / 192.0) * f21_real(17.0 / 12.0, 17.0 / 12.0, 7.0 / 3.0, J).value
    pref = lam / _SQRT3 * J ** (-2.0 / 3.0)
    lhs = pref * (f * fs + 3.0 * J * (f * fsp - fp * fs))
    rhs = pref / math.sqrt(1.0 - J)
    return abs(lhs - rhs)


# A tanh-sinh integral over (0, 1728) evaluates the weight at the same
# nodes every time: eight moments (j/1728)^k w touch 116 distinct
# (j, dist_right) keys, and with all 45 Gram entries (which read it only
# to fill the weight columns below, 383 nodes) 426; the acceptance suite
# touches 1 034.  The memo holds them with room to spare and stays under
# 1 MB when full.
@functools.lru_cache(maxsize=4096)
def _w_core(j: float, dist_right: float) -> float:
    """Weight value with the distance to 1728 supplied exactly.

    Computes the explicit form and the phi-derivative form from one
    shared (F, F*) and j^(1/3) evaluation and insists they agree; the two routes
    differ by nontrivial constant bookkeeping, so their agreement guards
    the 1728 lambda / pi prefactor.  Memoized: the guard runs once per
    distinct argument pair, and a failed guard caches nothing.
    """
    lam = lambda_star()
    J = j / 1728.0
    f, fs = _f_pair_dist(J, dist_right / 1728.0)
    # explicit form; 12 F - lam exp(-i pi/3) j^(1/3) F* in parts
    j3 = j ** (1.0 / 3.0)
    re, im = _n_parts(j3, 12.0 * f, fs, lam)
    w_explicit = (
        1728.0
        * lam
        / _PI
        * j ** (-2.0 / 3.0)
        / math.sqrt(dist_right)
        / (re * re + im * im)
    )
    # change-of-variables route through the angle derivative
    w_phi = 6.0 / (1728.0 * _PI) * _phi_prime(j3 / 12.0, dist_right / 1728.0, f, fs, lam)
    if abs(w_explicit - w_phi) > 1e-9 * abs(w_explicit):
        raise InternalInconsistency(
            "weight routes disagree at j=%r: %r vs %r" % (j, w_explicit, w_phi)
        )
    return w_explicit


def weight_w(j: float) -> float:
    """Normalized orthogonality weight at j in (0, 1728)."""
    if not 0.0 < j < 1728.0:
        raise DomainError("weight requires j in (0, 1728)")
    return _w_core(j, 1728.0 - j)


# ---------------------------------------------------------------------------
# tanh-sinh quadrature

_TMAX = 4.8
# the two pieces (0, _SPLIT) and (_SPLIT, 1728) at levels 0.._QUAD_LEVEL_CAP
_PIECE_LEVELS = 2 * (_QUAD_LEVEL_CAP + 1)


@functools.lru_cache(maxsize=_PIECE_LEVELS)
def _level_nodes(a: float, b: float, level: int):
    """Node columns (xs, dist_1728s, quad_weights) that level ``level``
    adds on (a, b) within (0, 1728), for +t and -t; the step there is
    0.5**level.
    """
    h = 0.5**level
    if level == 0:
        ts = [k * h for k in range(int(_TMAX / h) + 1)]
    else:
        ts = [k * h for k in range(1, int(_TMAX / h) + 1, 2)]
    r = 0.5 * (b - a)
    beyond_b = 1728.0 - b
    xs, ds, wqs = [], [], []
    for t in ts:
        u = 0.5 * _PI * math.sinh(t)
        e = math.exp(-2.0 * u)  # u >= 0 here
        sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
        wq = r * 0.5 * _PI * math.cosh(t) * sech2
        near = 2.0 * r * e / (1.0 + e)  # distance from the nearer endpoint
        far = 2.0 * r / (1.0 + e)
        # +t: node near b; -t: mirror near a
        xs.append(b - near)
        ds.append(near + beyond_b)
        wqs.append(wq)
        if t > 0.0:
            xs.append(a + near)
            ds.append(far + beyond_b)
            wqs.append(wq)
    return tuple(xs), tuple(ds), tuple(wqs)


def _tanh_sinh_piece(level_values, a: float, b: float, x_only: bool) -> float:
    """Integrate over (a, b) within (0, 1728) to _QUAD_TOLERANCE, trying
    levels up to _QUAD_LEVEL_CAP; level_values(a, b, level) gives the
    integrand at the nodes of that level, in the order of _level_nodes.
    On the left piece x is itself the exact distance to 0.

    An ``x_only`` integrand reads x alone, so it sees the distance to 1728
    as the rounded 1728 - x, and a level sum cannot be trusted below the
    floor h |wq g| rho summed over its nodes, rho the relative error of
    that distance.  The stop test adds the floors of the last two levels
    to the tolerance while they stay within _FLOOR_CAP; a larger floor
    means an integrand too singular at 1728, and counts for nothing.  An
    integrand that reads the exact distance has no floor.
    """
    total = floor = 0.0
    prev = prev_floor = None
    for level in range(_QUAD_LEVEL_CAP + 1):
        h = 0.5**level
        part = floor_part = 0.0
        xs, ds, wqs = _level_nodes(a, b, level)
        # a plain left-to-right sum: sum() of floats is compensated on 3.12+
        for x, d1728, wq, y in zip(xs, ds, wqs, level_values(a, b, level)):
            v = wq * y
            part += v
            if x_only:
                floor_part += abs(v) * abs((1728.0 - x) - d1728) / d1728
        total = 0.5 * total + h * part
        floor = 0.5 * floor + h * floor_part
        if level >= 2:
            scale = max(1.0, abs(total))
            slack = floor + prev_floor
            if slack > _FLOOR_CAP * scale:
                slack = 0.0
            if abs(total - prev) <= _QUAD_TOLERANCE * scale + slack:
                return total
        prev, prev_floor = total, floor
    raise NonConvergent("tanh-sinh level cap reached on (%r, %r)" % (a, b))


_SPLIT = 864.0


def _integrate_sing(level_values, x_only: bool) -> float:
    """Integral over (0, 1728) of the integrand whose node values
    level_values(a, b, level) gives."""
    left = _tanh_sinh_piece(level_values, 0.0, _SPLIT, x_only)
    return left + _tanh_sinh_piece(level_values, _SPLIT, 1728.0, x_only)


def quad_integrate(f) -> float:
    """Integral of f over (0, 1728) by tanh-sinh quadrature.

    Handles integrands with at worst the weight's own endpoint behavior,
    but f sees only the node x, not its exact distance to 1728.  Nodes
    that round onto 0 or 1728 are dropped, and near 1728 the rounding of
    x itself puts a floor under the accuracy.  Each level sum carries
    that floor, and a piece stops when two levels agree to the tolerance
    1e-10 plus the floors of both, as long as those floors stay within
    1e-8 of max(1, |sum|).  quad_integrate(weight_w) stops after 141
    calls of f with 0.99999999954, 4.6e-10 from the true mass 1.  gram,
    which hands the weight the exact distances and so has no floor, gets
    gram(0, 0) = 1.0000000000007 from 129 nodes, and its 45 entries read
    383 distinct nodes between them.
    """

    def g(x):
        if x <= 0.0 or x >= 1728.0:
            return 0.0
        return f(x)

    def level_values(a, b, level):
        return map(g, _level_nodes(a, b, level)[0])

    return _integrate_sing(level_values, True)


# Per-process node columns of gram, shared by all its entries: the weight
# and the float value of each polynomial at every node of a piece and
# level.  All 45 entries fill 11 weight and 95 polynomial columns, about
# 130 kB.
@functools.lru_cache(maxsize=_PIECE_LEVELS)
def _weight_column(a: float, b: float, level: int):
    xs, ds, _ = _level_nodes(a, b, level)
    return tuple(map(_w_core, xs, ds))


@functools.lru_cache(maxsize=(MAX_GRAM_DEGREE + 1) * _PIECE_LEVELS)
def _atkin_column(k: int, a: float, b: float, level: int):
    # float coefficients, highest degree first, by Horner at each node
    cs = [float(c) for c in reversed(atkin(k).coeffs)]
    out = []
    for x in _level_nodes(a, b, level)[0]:
        p = 0.0
        for c in cs:
            p = p * x + c
        out.append(p)
    return tuple(out)


def gram(m: int, n: int) -> float:
    """Inner product of the degree-m and degree-n monic polynomials
    against the weight."""
    for k in (m, n):
        if not 0 <= k <= MAX_GRAM_DEGREE:
            raise DomainError("gram degrees must lie in 0..%d, got %d" % (MAX_GRAM_DEGREE, k))

    def level_values(a, b, level):
        # (p_m p_n) w at each node: the order of the products is part of the value
        pm, pn = _atkin_column(m, a, b, level), _atkin_column(n, a, b, level)
        return map(mul, map(mul, pm, pn), _weight_column(a, b, level))

    return _integrate_sing(level_values, False)
