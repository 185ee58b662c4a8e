"""Seeded inputs and independent output checks for the four workloads.

``inputs(workload, seed)`` is pure standard library: it returns the
operation specs of one round, and the same seed always gives the same
specs.  Every seed draws its inputs inside the same fixed strata.  Degree
bands are evenly spaced ladders that the seed shifts by a few degrees,
with the top of each band pinned, so the operation count, the cache
increment of each operation and nearly all of the work are the same for
every seed.

``build_ops`` turns the specs of an in-process workload into operations.
An operation's ``call`` makes every atkinpoly call the operation needs and
nothing else, so its latency is time spent inside the package.  Its
``check`` uses only this file's own routes (closed forms, recurrences
over F_p and over the rationals, finite differences) and raises
``Mismatch`` when an output is wrong.  ``check_cli`` does the same for one
command-line invocation.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F
from typing import Callable, NamedTuple

WORKLOADS = ("exact", "supersingular", "numeric", "cli")

# atkin_asymptotic computes 2.0 ** (2n + 1), which overflows for n >= 512;
# operations at or past this degree are expected to fail until that is fixed.
ASYMPTOTIC_OVERFLOW_DEGREE = 512

# |lhs - rhs| tolerances, matching the acceptance suite where it states one
GENFUN_TOL = 1e-8
BUV_TOL = 1e-6
ASYMPTOTIC_REL_TOL = 1e-2
MOMENT_REL_TOL = 1e-6
GRAM_REL_TOL = 1e-7
WEIGHT_REL_TOL = 1e-7


class Mismatch(Exception):
    """An output disagrees with the benchmark's independent route."""


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    # returns the relative discrepancy of a float check that counts toward
    # accuracy_digits, or None; raises Mismatch
    check: Callable[[object], object]
    past_limit: bool = False


def _require(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# independent routes


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _rising(a: F, m: int) -> F:
    out = F(1)
    for i in range(m):
        out *= a + i
    return out


def normalized_at_zero(n: int) -> F:
    """Closed form of the normalized degree-n polynomial at 0, n >= 1."""
    m = n - 1
    return (-1) ** m * F(-5, 12) * _rising(F(11, 12), m) * _rising(F(17, 12), m) / math.factorial(2 * m + 1)


def normalized_at_one(n: int) -> F:
    """Closed form of the normalized degree-n polynomial at 1, n >= 1."""
    m = n - 1
    return F(7, 12) * _rising(F(11, 12), m) * _rising(F(19, 12), m) / math.factorial(2 * m + 1)


def orig_shift(m: int) -> F:
    """Shift s_m of the original-scale recurrence A_{m+1} = (x - s_m) A_m - p_m A_{m-1}."""
    if m == 0:
        return F(720)
    return F(24 * (144 * m * m - 29), (2 * m + 1) * (2 * m - 1))


def orig_prod(m: int) -> F:
    """Product p_m of the original-scale recurrence, m >= 1."""
    if m == 1:
        return F(393120)
    return F(36 * (12 * m - 13) * (12 * m - 7) * (12 * m - 5) * (12 * m + 1), m * (m - 1) * (2 * m - 1) ** 2)


def atkin_mod_p_recurrence(n: int, p: int) -> tuple:
    """Coefficients of A_n mod p, ascending, from the recurrence run in F_p.

    Valid when every recurrence denominator is a unit, which p > 2n ensures.
    """

    def mod(q: F) -> int:
        return q.numerator * pow(q.denominator, -1, p) % p

    prev, cur = [1], [(-720) % p, 1]
    if n == 0:
        return (1,)
    for m in range(1, n):
        s, pr = mod(orig_shift(m)), mod(orig_prod(m))
        nxt = [0] + cur
        for i, c in enumerate(cur):
            nxt[i] = (nxt[i] - s * c) % p
        for i, c in enumerate(prev):
            nxt[i] = (nxt[i] - pr * c) % p
        prev, cur = cur, nxt
    return tuple(cur)


def ss_degree(p: int) -> int:
    """Number of supersingular j-invariants in characteristic p >= 5."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def weighted_moment(k: int) -> F:
    """Exact integral of (j/1728)^k w(j) dj from the original-scale recurrence.

    x^k is expanded in the monic orthogonal basis with the Jacobi matrix;
    the weight has mass 1, so the moment is the A_0 coordinate.
    """
    c = [F(1)]
    for _ in range(k):
        d = [F(0)] * (len(c) + 1)
        for n, v in enumerate(c):
            d[n + 1] += v
            d[n] += orig_shift(n) * v
            if n:
                d[n - 1] += orig_prod(n) * v
        c = d
    return c[0] / F(1728) ** k


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_monic(coeffs, n: int, what: str):
    _require(len(coeffs) == n + 1, "%s has degree %d, expected %d" % (what, len(coeffs) - 1, n))
    _require(coeffs[-1] == 1, "%s is not monic" % what)


def _check_original(coeffs, n: int, at_1728):
    """A_n on the original scale against its closed endpoint values and the
    sum of the recurrence shifts (the x^(n-1) coefficient)."""
    _check_monic(coeffs, n, "A_%d" % n)
    scale = F(1728) ** n
    _require(coeffs[0] == scale * normalized_at_zero(n), "A_%d(0) differs from the closed form" % n)
    _require(
        coeffs[n - 1] == -sum(orig_shift(m) for m in range(n)),
        "x^%d coefficient of A_%d differs from the sum of shifts" % (n - 1, n),
    )
    if at_1728 is not None:
        _require(at_1728 == scale * normalized_at_one(n), "A_%d(1728) differs from the closed form" % n)


# ---------------------------------------------------------------------------
# seeded inputs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _ladder(rng, first: int, step: int, count: int, top: int):
    """Evenly spaced ascending degrees shifted by one seeded offset, then the
    pinned top.  Equal steps keep the cache increment of every operation in
    the band the same for every seed, and the pinned top keeps the total."""
    offset = rng.randrange(step // 3)
    return [first + offset + step * i for i in range(count)] + [top]


def _prime_between(rng, lo: int, hi: int) -> int:
    return rng.choice([q for q in range(lo, hi) if is_prime(q)])


def _theta(rng, n: int) -> float:
    """Angle in (0.4, 1.3) where both cosine factors of the degree-n asymptotic
    stay clear of zero, so a relative comparison is meaningful."""
    while True:
        th = rng.uniform(0.4, 1.3)
        phase = 2.0 * (n + 1) * th
        if abs(math.cos(phase + math.pi / 12)) > 0.3 and abs(math.cos(phase - 7 * math.pi / 12)) > 0.3:
            return th


def _strata(rng, lo: float, hi: float, count: int):
    width = (hi - lo) / count
    return [rng.uniform(lo + i * width, lo + (i + 1) * width) for i in range(count)]


S_COUNT = 4  # number of parameter triples in atkinpoly's S_SET


def exact_inputs(rng):
    specs = [("original", n) for n in _ladder(rng, 200, 10, 6, 260)]
    for lo, hi in ((20, 60), (60, 100), (100, 140), (140, 180), (180, 220)):
        n = rng.randrange(lo, hi)
        specs.append(("reduce", n, _prime_between(rng, 2 * n + 1, 4 * n)))
    specs += [("normalized", n) for n in _ladder(rng, 10, 10, 7, 80)]
    specs += [("kz", n) for n in _ladder(rng, 8, 8, 4, 40)]
    specs += [("ourrep", n) for n in _ladder(rng, 4, 8, 2, 20)]
    for s in range(S_COUNT):
        for variant in ("V", "calV"):
            specs += [("assoc", n, s, variant) for n in _ladder(rng, 4, 6, 1, 14)]
    for which in ("Rep1", "Rep2", "Rep3"):
        specs += [("rep", n, which) for n in _ladder(rng, 6, 9, 1, 24)]
    return specs


def supersingular_inputs(rng):
    primes = [p for p in range(5, 98) if is_prime(p)]
    rng.shuffle(primes)
    return [("ss", p) for p in primes]


def numeric_inputs(rng):
    specs = [("moment", k) for k in sorted(rng.sample(range(11), 8))]
    # fixed order: which call refills the weight cache must not depend on the seed
    specs += [("gram", n, n) for n in range(9)]
    specs += [("gram", m, n) for m in range(9) for n in range(m + 1, 9)]
    specs += [("weight", j) for j in _strata(rng, 30.0, 1700.0, 12)]
    for kind in ("fjk", "uy", "catalan"):
        for x, t in zip(_strata(rng, 0.2, 0.7, 2), _strata(rng, 0.05, 0.25, 2)):
            specs.append((kind, x, t))
    for kind in ("at_zero", "at_one", "pfaff"):
        specs.append((kind, rng.uniform(0.05, 0.35)))
    for lo in (0, 3, 6):
        for x in _strata(rng, 0.05, 0.95, 2):
            specs.append(("buv", rng.randrange(lo, lo + 3), x))
    for lo, hi in ((100, 200), (200, 300), (300, 400), (400, 500), (520, 600), (600, 700), (700, 801)):
        n = rng.randrange(lo, hi)
        specs.append(("asymptotic", n, _theta(rng, n)))
    return specs


def cli_inputs(rng):
    """Argument lists of one round of command-line invocations, shuffled.

    Each entry is (argv, expected exit code).  The mix covers every
    subcommand except selftest at small inputs, plus the one invocation
    that must exit with 2.
    """
    s_set = ("-1/2 -2/3 13/12", "1/2 -2/3 7/12", "-1/2 2/3 5/12", "1/2 2/3 -1/12")

    def params(i):
        a, b, c = s_set[i].split()
        return ["--alpha", a, "--beta", b, "--c", c]

    # parameters that change the cost of an invocation by more than a few
    # milliseconds (normalized degree, binomial degree, gram size, largest
    # prime) are pinned or drawn from narrow strata
    runs = [["atkin", "--n", str(rng.randrange(20, 24)), "--scale", "normalized"]]
    for lo, hi in ((10, 35), (35, 61)):
        runs.append(["atkin", "--n", str(rng.randrange(lo, hi)), "--scale", "original"])
    for lo, hi in ((2, 6), (6, 10), (10, 13)):
        runs.append(["assoc-jacobi", "--n", str(rng.randrange(lo, hi))] + params(rng.randrange(4))
                    + ["--variant", rng.choice(("V", "calV"))])
    for which in ("rep1", "rep2", "rep3"):
        runs.append(["rep-check", "--n", str(rng.randrange(0, 16)), "--which", which])
    runs.append(["explicit-check", "--n", str(rng.randrange(14, 18)), "--form", "binomial"])
    runs.append(["explicit-check", "--n", str(rng.randrange(0, 13)), "--form", "hypergeometric"])
    runs.append(["explicit-check", "--n", str(rng.randrange(0, 11)), "--form", rng.choice(("assoc-v", "assoc-calv"))]
                + params(rng.randrange(4)))
    for lo, hi in ((100, 200), (200, 300), (300, 400)):
        n = rng.randrange(lo, hi)
        runs.append(["asymptotic", "--n", str(n), "--theta", repr(_theta(rng, n)), "--tol", repr(ASYMPTOTIC_REL_TOL)])
    for which in ("fjk", "uy", "catalan"):
        runs.append(["genfun", "--which", which, "--n", str(rng.randrange(50, 61)),
                     "--t", repr(rng.uniform(0.05, 0.25)), "--x", repr(rng.uniform(0.2, 0.7))])
    for which in ("at-zero", "at-one"):
        runs.append(["genfun", "--which", which, "--n", str(rng.randrange(50, 61)), "--t", repr(rng.uniform(0.05, 0.35))])
    runs += [["weight", "--x", repr(x)] for x in _strata(rng, 1.0, 1727.0, 3)]
    runs += [["gram", "--n", str(n)] for n in (1, 2, 3)]
    runs += [["supersingular", "--pmax", str(pmax)] for pmax in (rng.randrange(5, 16), rng.randrange(16, 27), 37)]
    specs = [(argv, 0) for argv in runs]
    specs.append((["rep-check", "--n", "1", "--which", "rep1", "--rep1-coeff", "91/384"], 2))
    rng.shuffle(specs)
    return specs


_GENERATORS = {
    "exact": exact_inputs,
    "supersingular": supersingular_inputs,
    "numeric": numeric_inputs,
    "cli": cli_inputs,
}


def inputs(workload: str, seed: int) -> list:
    """The operation specs of one round of ``workload`` for ``seed``."""
    return _GENERATORS[workload](_rng(workload, seed))


# ---------------------------------------------------------------------------
# in-process operations


def _exact_op(ap, spec) -> Op:
    kind, n = spec[0], spec[1]
    if kind == "original":
        def call():
            poly = ap.atkin(n)
            return poly.coeffs, ap.poly_eval(poly, 1728)

        def check(res):
            _check_original(res[0], n, res[1])

        return Op("atkin(%d)" % n, call, check)
    if kind == "reduce":
        p = spec[2]

        def call():
            return ap.reduce_mod_p(ap.atkin(n), p).coeffs

        def check(res):
            _require(tuple(res) == atkin_mod_p_recurrence(n, p), "A_%d mod %d differs from the F_p recurrence" % (n, p))

        return Op("reduce_mod_p(atkin(%d), %d)" % (n, p), call, check)
    if kind == "normalized":
        def call():
            poly = ap.atkin_normalized(n)
            return (poly.coeffs, ap.poly_eval(poly, 0), ap.poly_eval(poly, 1),
                    ap.atkin_at_zero(n), ap.atkin_at_one(n))

        def check(res):
            coeffs, v0, v1, z, o = res
            _check_monic(coeffs, n, "normalized A_%d" % n)
            _require(v0 == z == normalized_at_zero(n), "normalized A_%d at 0 disagrees" % n)
            _require(v1 == o == normalized_at_one(n), "normalized A_%d at 1 disagrees" % n)

        return Op("atkin_normalized(%d)" % n, call, check)

    # the rest compare an explicit or representation form with a recurrence
    if kind == "kz":
        label, degree = "kz_explicit(%d)" % n, n
        call = lambda: (ap.kz_explicit(n).coeffs, ap.atkin_normalized(n).coeffs)
    elif kind == "ourrep":
        label, degree = "ourrep_explicit(%d)" % n, n + 1
        call = lambda: (ap.ourrep_explicit(n).coeffs, ap.atkin_normalized(n + 1).coeffs)
    elif kind == "assoc":
        params, variant = ap.S_SET[spec[2]], spec[3]
        explicit, recurrence = ((ap.wimp_V_explicit, ap.assoc_V) if variant == "V"
                                else (ap.im_calV_explicit, ap.assoc_calV))
        label, degree = "%s_explicit(%d, S_SET[%d])" % (variant, n, spec[2]), n
        call = lambda: (explicit(n, params).coeffs, recurrence(n, params).coeffs)
    else:
        which = spec[2]
        label, degree = "%s(%d)" % (which, n), n + 1
        call = lambda: (ap.atkin_via_representation(n, which).coeffs, ap.atkin_normalized(n + 1).coeffs)

    def check(res):
        candidate, target = res
        _check_monic(target, degree, label + " target")
        _require(candidate == target, "%s differs from the recurrence" % label)

    return Op(label, call, check)


def _supersingular_op(ap, spec, counts) -> Op:
    p = spec[1]
    deg = ss_degree(p)

    def call():
        counts["supersingular.primes"] += 1
        counts["supersingular.fp2_elements"] += p * p
        ss = ap.ss_poly(p)
        return ss.coeffs, ap.fp_gcd(ss, ss.derivative()).coeffs, ap.atkin_mod_p(deg, p).coeffs

    def check(res):
        coeffs, gcd, reduced = res
        _require(len(coeffs) - 1 == deg, "ss_poly(%d) has degree %d, expected %d" % (p, len(coeffs) - 1, deg))
        _require(gcd == (1,), "ss_poly(%d) is not squarefree" % p)
        _require(reduced == coeffs, "atkin_mod_p(%d, %d) differs from ss_poly(%d)" % (deg, p, p))
        _require(tuple(coeffs) == atkin_mod_p_recurrence(deg, p), "ss_poly(%d) differs from A_%d mod %d" % (p, deg, p))

    return Op("ss_poly(%d)" % p, call, check)


def _phi_derivative(phi_values, h: float) -> float:
    """Five-point central difference from phi at J-2h, J-h, J+h, J+2h."""
    m2, m1, p1, p2 = phi_values
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)


def _numeric_op(ap, spec, counts, gram_diag) -> Op:
    kind = spec[0]
    if kind == "moment":
        k = spec[1]

        def integrand(j):
            counts["weight.quad_nodes"] += 1
            return (j / 1728.0) ** k * ap.weight_w(j)

        def check(res):
            d = _rel(res, float(weighted_moment(k)))
            _require(d <= MOMENT_REL_TOL, "moment %d off by %.3e relative" % (k, d))
            return d

        return Op("moment(%d)" % k, lambda: ap.quad_integrate(integrand), check)
    if kind == "gram":
        m, n = spec[1], spec[2]

        def check(res):
            if m == n:
                gram_diag[n] = res
                expected = 1.0 if n == 0 else float(orig_prod(n))
                got = res if n == 0 else res / gram_diag[n - 1]
                d = _rel(got, expected)
                _require(d <= GRAM_REL_TOL, "gram diagonal ratio at %d off by %.3e" % (n, d))
            else:
                d = abs(res) / math.sqrt(gram_diag[m] * gram_diag[n])
                _require(d <= GRAM_REL_TOL, "normalized gram(%d, %d) = %.3e" % (m, n, d))
            return d

        return Op("gram(%d, %d)" % (m, n), lambda: ap.gram(m, n), check)
    if kind == "weight":
        j = spec[1]
        big_j = j / 1728.0
        h = 1e-3 * min(big_j, 1.0 - big_j)

        def call():
            return ap.weight_w(j), [ap.phi(big_j + s * h) for s in (-2, -1, 1, 2)]

        def check(res):
            w, phis = res
            d = _rel(w, 6.0 / (1728.0 * math.pi) * _phi_derivative(phis, h))
            _require(d <= WEIGHT_REL_TOL, "weight at %.6g off the angle derivative by %.3e" % (j, d))
            return d

        return Op("weight_w(%.6g)" % j, call, check)
    if kind in ("fjk", "uy", "catalan", "at_zero", "at_one", "pfaff"):
        if kind == "fjk":
            label = "fjk_check(x=%.4g, t=%.4g)" % spec[1:]
            call = lambda: [ap.fjk_check(0.5, -2.0 / 3.0, 7.0 / 12.0, spec[1], spec[2], 60)]
        elif kind == "uy":
            label = "gen_uy_check(x=%.4g, t=%.4g)" % spec[1:]

            def call():
                r = ap.gen_uy_check(ap.S_SET[1], spec[1], spec[2], 50)
                return [(r.u_partial_sum, r.u_closed_form), (r.y_partial_sum, r.y_closed_form)]
        elif kind == "catalan":
            label = "catalan_gen_check(x=%.4g, t=%.4g)" % spec[1:]
            call = lambda: [ap.catalan_gen_check(spec[1], spec[2], 50)]
        elif kind == "pfaff":
            label = "gen_zero_pfaff_residual(t=%.4g)" % spec[1]
            call = lambda: [(ap.gen_zero_pfaff_residual(spec[1]), 0.0)]
        else:
            label = "gen_%s(t=%.4g)" % (kind, spec[1])
            fn = ap.gen_at_zero if kind == "at_zero" else ap.gen_at_one
            call = lambda: [fn(spec[1], 60)]

        def check(res):
            worst = max(abs(lhs - rhs) for lhs, rhs in res)
            _require(worst <= GENFUN_TOL, "%s residual %.3e" % (label, worst))
            return max(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) for lhs, rhs in res)

        return Op(label, call, check)
    if kind == "buv":
        n, x = spec[1], spec[2]

        def check(res):
            b, a = res
            d = abs(b - a) / max(1.0, abs(a))
            _require(d <= BUV_TOL, "buv_combination(%d, %.4g) residual %.3e" % (n, x, d))
            return d

        return Op("buv_combination(%d, %.4g)" % (n, x),
                  lambda: (ap.buv_combination(n, x), ap.atkin_normalized_value(n + 1, x)), check)
    n, theta = spec[1], spec[2]

    def check(res):
        approx, exact = res
        d = _rel(approx, exact)
        _require(d <= ASYMPTOTIC_REL_TOL, "asymptotic at n=%d off by %.3e relative" % (n, d))
        # an approximation error, not a rounding error: kept out of accuracy_digits

    return Op("atkin_asymptotic(%d, %.4g)" % (n, theta),
              lambda: (ap.atkin_asymptotic(n, theta), ap.atkin_normalized_value(n + 1, math.sin(theta) ** 2)),
              check, past_limit=n >= ASYMPTOTIC_OVERFLOW_DEGREE)


def build_ops(workload: str, seed: int, ap, counts: dict) -> list:
    """Operations of one in-process round; ``ap`` is the atkinpoly package.

    ``counts`` receives the counts taken from outside the package.
    """
    specs = inputs(workload, seed)
    if workload == "exact":
        return [_exact_op(ap, s) for s in specs]
    if workload == "supersingular":
        return [_supersingular_op(ap, s, counts) for s in specs]
    gram_diag = {}
    return [_numeric_op(ap, s, counts, gram_diag) for s in specs]


# ---------------------------------------------------------------------------
# command-line invocations

ENVELOPE_KEYS = {"command", "inputs", "results", "provenance"}


def cli_counts(argv) -> dict:
    """Counts taken from outside for one invocation."""
    if argv[0] != "supersingular":
        return {}
    primes = [p for p in range(5, int(argv[2]) + 1) if is_prime(p)]
    return {"supersingular.primes": len(primes), "supersingular.fp2_elements": sum(p * p for p in primes)}


def check_cli(argv, expected_exit: int, exit_code: int, stdout: str):
    """Exit code, envelope keys and the result fields of one invocation."""
    _require(exit_code == expected_exit, "exit %d, expected %d" % (exit_code, expected_exit))
    env = json.loads(stdout)
    _require(set(env) == ENVELOPE_KEYS, "envelope keys %s" % sorted(env))
    _require(env["command"] == argv[0], "command %r" % env["command"])
    res = env["results"]
    sub = argv[0]
    if sub in ("rep-check", "explicit-check"):
        _require(res["matched"] is (expected_exit == 0), "matched is %r" % res["matched"])
    elif sub == "genfun":
        _require(res["residual"] <= env["inputs"]["tol"], "residual %.3e" % res["residual"])
    elif sub == "asymptotic":
        _require(res["relative_error"] <= ASYMPTOTIC_REL_TOL, "relative error %.3e" % res["relative_error"])
    elif sub == "atkin":
        n = int(argv[2])
        coeffs = [F(c) for c in res["coefficients"]]
        if argv[4] == "original":
            _check_original(coeffs, n, None)
        else:
            _check_monic(coeffs, n, "normalized A_%d" % n)
            _require(coeffs[0] == normalized_at_zero(n), "normalized A_%d(0) differs from the closed form" % n)
    elif sub == "assoc-jacobi":
        _check_monic([F(c) for c in res["coefficients"]], int(argv[2]), "associated polynomial")
    elif sub == "weight":
        _require(0.0 < res["w"] < math.inf, "w = %r" % res["w"])
    elif sub == "gram":
        g = res["matrix"]
        size = int(argv[2]) + 1
        _require(len(g) == size, "matrix size %d" % len(g))
        for n in range(1, size):
            d = _rel(g[n][n] / g[n - 1][n - 1], float(orig_prod(n)))
            _require(d <= GRAM_REL_TOL, "gram diagonal ratio at %d off by %.3e" % (n, d))
            for m in range(n):
                _require(g[m][n] == g[n][m], "gram matrix not symmetric")
                d = abs(g[m][n]) / math.sqrt(g[m][m] * g[n][n])
                _require(d <= GRAM_REL_TOL, "normalized gram(%d, %d) = %.3e" % (m, n, d))
    elif sub == "supersingular":
        records = res["records"]
        primes = [p for p in range(5, int(argv[2]) + 1) if is_prime(p)]
        _require([r["p"] for r in records] == primes, "primes %s" % [r["p"] for r in records])
        for r in records:
            _require(r["matched"] is True and r["degree"] == ss_degree(r["p"]), "record %s" % r)
