"""Command-line interface.

Every subcommand prints a single JSON envelope on stdout:

    {"command": ..., "inputs": ..., "results": ..., "provenance": ...}

Exact rationals are serialized as canonical num/den strings, reals as
JSON numbers in shortest round-trip decimal (the results block carries a
precision note whenever reals appear).  Output is deterministic: sorted
keys, no timestamps.

A flag that only some forms read applies only to those forms; any other
form refuses it with exit 1 before computing anything.  --alpha, --beta
and --c apply only to explicit-check assoc-v|assoc-calv and genfun
fjk|uy (default S_SET[1] = (1/2, -2/3, 7/12)), --x only to genfun
fjk|uy|catalan (default 0.5), and --rep1-coeff only to rep-check rep1
(default 455/3456).

Exit codes: 0 on success, 1 on usage errors and on a DomainError, 2 when
a verification-style check fails, on a NonConvergent and on an
InternalInconsistency (see atkinpoly.errors).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import assoc_jacobi as aj
from . import genfun, supersingular, weight
from .atkin import (
    _three_term,
    atkin,
    atkin_normalized,
    atkin_normalized_value,
    kz_explicit,
)
from .errors import AtkinError, DomainError
from .exact import rat_str
from .hypergeom import atkin_asymptotic, double_params

_PRECISION = "ieee-754 double, shortest round-trip decimal"

# Largest --n of the exact subcommands (atkin, assoc-jacobi, rep-check,
# explicit-check), and the largest degree supersingular reduces.  The
# slowest of them at the cap, rep-check, takes 0.29-0.48 s as a fresh
# process on a 2-vCPU Xeon VM (every explicit-check form 0.18-0.34 s);
# without a cap, the coefficients of A_n pass Python's 4300-digit
# int-to-str limit by n of about 1600.
MAX_EXACT_DEGREE = 200
_EXACT_DEGREE_HELP = "degree, at most %d" % MAX_EXACT_DEGREE


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let bare negative numbers reach the value flags: rationals like
        # -2/3 and decimals like -0.5, -.5, -5. and -1e-3
        self._negative_number_matcher = re.compile(r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)$")

    # argparse exits with 2 on bad usage; keep 2 reserved for verification
    # failures and use 1 for usage problems instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return value


def _tolerance(text: str) -> float:
    # a negative tolerance can never be met, so it is a usage error, not a failed check
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative tolerance, got %r" % text)
    return value


def _coeff_strings(poly) -> list:
    return [rat_str(c) for c in poly.coeffs]


def _emit(command, inputs, results, provenance, pretty: bool):
    envelope = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": provenance,
    }
    if pretty:
        text = json.dumps(envelope, sort_keys=True, indent=2)
    else:
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    print(text)


def _check_exact_degree(n: int):
    if n > MAX_EXACT_DEGREE:
        raise DomainError("--n capped at %d for exact subcommands" % MAX_EXACT_DEGREE)


def _read_by(args, flag, form, forms, default=None):
    """The value of the optional ``flag`` (``default`` when not given) if
    ``form`` is one of the ``forms`` that read it, else None; any other
    form refuses the flag."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if form in forms:
        return default if value is None else value
    if value is not None:
        names = forms[0] if len(forms) == 1 else "%s and %s" % (", ".join(forms[:-1]), forms[-1])
        raise DomainError("%s only applies to %s" % (flag, names))
    return None


def _params_read_by(args, form, forms):
    """AJParams of --alpha, --beta and --c, each S_SET[1]'s when not given,
    if ``form`` is one of the ``forms`` that read them, else None."""
    values = [
        _read_by(args, "--" + name, form, forms, default)
        for name, default in zip(aj.AJParams._fields, aj.S_SET[1])
    ]
    return aj.AJParams(*values) if form in forms else None


def _double_params(params: aj.AJParams) -> tuple:
    """(alpha, beta, c) as doubles, refused in the words of the flags."""
    try:
        return double_params(params)
    except DomainError:
        raise DomainError("--alpha, --beta and --c must lie in the range of a double") from None


def _params_inputs(params: aj.AJParams) -> dict:
    return {"alpha": rat_str(params.alpha), "beta": rat_str(params.beta), "c": rat_str(params.c)}


def _cmd_atkin(args):
    _check_exact_degree(args.n)
    poly = atkin(args.n) if args.scale == "original" else atkin_normalized(args.n)
    inputs = {"n": args.n, "scale": args.scale}
    results = {"degree": args.n, "coefficients": _coeff_strings(poly)}
    provenance = {"coefficients": "recurrence in the coefficient index from the Kaneko-Zagier 2F1 product"}
    return inputs, results, provenance, 0


def _cmd_assoc_jacobi(args):
    _check_exact_degree(args.n)
    params = aj.AJParams(args.alpha, args.beta, args.c)
    fn = aj.assoc_V if args.variant == "V" else aj.assoc_calV
    poly = fn(args.n, params)
    inputs = {"n": args.n, "variant": args.variant, **_params_inputs(params)}
    results = {"degree": args.n, "coefficients": _coeff_strings(poly)}
    provenance = {"coefficients": "three-term recurrence with shifted index"}
    return inputs, results, provenance, 0


def _compared(inputs, label, mechanism, candidate, target):
    """Handler result of a check of ``candidate``, made by ``mechanism``, against ``target``."""
    matched = candidate == target
    results = {
        "matched": matched,
        label: _coeff_strings(candidate),
        "recurrence": _coeff_strings(target),
    }
    provenance = {label: mechanism, "recurrence": "three-term recurrence"}
    return inputs, results, provenance, 0 if matched else 2


def _cmd_rep_check(args):
    _check_exact_degree(args.n)
    inputs = {"n": args.n, "which": args.which}
    rep1_coeff = _read_by(args, "--rep1-coeff", args.which, ("rep1",))
    if rep1_coeff is not None:
        inputs["rep1_coeff"] = rat_str(rep1_coeff)
    candidate = aj.atkin_via_representation(args.n, args.which.capitalize(), rep1_coeff)
    target = _three_term(args.n + 1, normalized=True)
    return _compared(inputs, "representation", "associated-polynomial combination", candidate, target)


def _cmd_explicit_check(args):
    _check_exact_degree(args.n)
    params = _params_read_by(args, args.form, ("assoc-v", "assoc-calv"))
    inputs = {"n": args.n, "form": args.form}
    mechanism = "terminating hypergeometric sums"
    if args.form == "binomial":
        candidate = kz_explicit(args.n)
        target = _three_term(args.n, normalized=True)
        mechanism = "double binomial sum"
    elif args.form == "hypergeometric":
        candidate = aj.ourrep_explicit(args.n)
        target = _three_term(args.n + 1, normalized=True)
    else:
        inputs.update(_params_inputs(params))
        if args.form == "assoc-v":
            candidate = aj.wimp_V_explicit(args.n, params)
            target = aj.assoc_V(args.n, params)
        else:
            candidate = aj.im_calV_explicit(args.n, params)
            target = aj.assoc_calV(args.n, params)
    return _compared(inputs, "explicit", mechanism, candidate, target)


def _cmd_asymptotic(args):
    approx = atkin_asymptotic(args.n, args.theta)
    exact = atkin_normalized_value(args.n + 1, math.sin(args.theta) ** 2)
    rel = abs(approx - exact) / abs(exact)
    inputs = {"n": args.n, "theta": args.theta}
    code = 0
    if args.tol is not None:
        inputs["tol"] = args.tol
        if rel > args.tol:
            code = 2
    results = {
        "approximation": approx,
        "recurrence_value": exact,
        "relative_error": rel,
        "precision": _PRECISION,
    }
    provenance = {
        "approximation": "cosine asymptotic with hypergeometric amplitudes",
        "recurrence_value": "three-term recurrence evaluated pointwise",
    }
    return inputs, results, provenance, code


def _cmd_genfun(args):
    x = _read_by(args, "--x", args.which, ("fjk", "uy", "catalan"), 0.5)
    params = _params_read_by(args, args.which, ("fjk", "uy"))
    tol = 1e-8 if args.tol is None else args.tol
    inputs = {"which": args.which, "t": args.t, "n": args.n, "tol": tol}
    provenance = {
        "partial_sum": "truncated series of recurrence-built values",
        "closed_form": "product of Gauss functions at the algebraic substitution",
    }
    if params is not None:
        inputs.update(x=x, **_params_inputs(params))
        doubles = _double_params(params)
    if args.which == "uy":
        r = genfun.gen_uy_check(params, x, args.t, args.n)
        residual = max(
            abs(r.u_partial_sum - r.u_closed_form),
            abs(r.y_partial_sum - r.y_closed_form),
        )
        results = r._asdict()
    else:
        if args.which == "fjk":
            lhs, rhs = genfun.fjk_check(*doubles, x, args.t, args.n)
            provenance["partial_sum"] = "truncated hypergeometric series"
        elif args.which == "catalan":
            inputs["x"] = x
            lhs, rhs = genfun.catalan_gen_check(x, args.t, args.n)
        elif args.which == "at-zero":
            lhs, rhs = genfun.gen_at_zero(args.t, args.n)
        else:
            lhs, rhs = genfun.gen_at_one(args.t, args.n)
        residual = abs(lhs - rhs)
        results = {"partial_sum": lhs, "closed_form": rhs}
    results["residual"] = residual
    results["precision"] = _PRECISION
    return inputs, results, provenance, 0 if residual <= tol else 2


def _cmd_weight(args):
    value = weight.weight_w(args.x)
    inputs = {"x": args.x}
    results = {"w": value, "precision": _PRECISION}
    provenance = {
        "w": "explicit modulus form cross-checked against the angle derivative"
    }
    return inputs, results, provenance, 0


def _cmd_gram(args):
    if not 0 <= args.n <= weight.MAX_GRAM_DEGREE:
        raise DomainError("gram --n must lie in 0..%d" % weight.MAX_GRAM_DEGREE)
    size = args.n + 1
    matrix = [[0.0] * size for _ in range(size)]
    for m in range(size):
        for k in range(m, size):
            # the integrand's product p_m p_k commutes, so gram(k, m) is this same double
            matrix[m][k] = matrix[k][m] = weight.gram(m, k)
    inputs = {"n": args.n}
    results = {"matrix": matrix, "precision": _PRECISION}
    provenance = {"matrix": "tanh-sinh quadrature against the weight, split at 864"}
    return inputs, results, provenance, 0


def _cmd_supersingular(args):
    # deg ss_p <= (p + 13)/12 (match_report), so every degree stays within the cap
    if (args.pmax + 13) // 12 > MAX_EXACT_DEGREE:
        raise DomainError(
            "--pmax capped at %d, so that deg ss_p stays within the exact degree cap %d"
            % (12 * MAX_EXACT_DEGREE - 2, MAX_EXACT_DEGREE)
        )
    records = [
        {"p": rec["p"], "degree": rec["deg_ss"], "matched": rec["matched"]}
        for rec in supersingular.match_report(args.pmax)
    ]
    ok = all(rec["matched"] for rec in records)
    inputs = {"pmax": args.pmax}
    results = {"records": records}
    provenance = {
        "records": "truncated Kaneko-Zagier 2F1 over F_p against the recurrence reduced mod p"
    }
    return inputs, results, provenance, 0 if ok else 2


def _cmd_selftest(args):
    from . import selftest  # only this subcommand needs the acceptance suite

    outcomes = selftest.run_all()
    records = [
        {"criterion": r.number, "passed": r.passed, "detail": r.detail}
        for r in outcomes
    ]
    ok = all(r.passed for r in outcomes)
    inputs = {}
    results = {"criteria": records, "all_passed": ok}
    provenance = {"criteria": "full acceptance suite"}
    return inputs, results, provenance, 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="atkinpoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        return p

    def add_params(p, read_by=None):
        # --alpha, --beta and --c: required, or optional where only the forms read_by read them
        for name, default in zip(aj.AJParams._fields, aj.S_SET[1]):
            help_text = read_by and "applies only to %s; default %s" % (read_by, rat_str(default))
            p.add_argument("--" + name, type=_rational, required=read_by is None, help=help_text)

    p = add("atkin", _cmd_atkin, "coefficients of an Atkin polynomial")
    p.add_argument("--n", type=int, required=True, help=_EXACT_DEGREE_HELP)
    p.add_argument("--scale", choices=("original", "normalized"), default="original")

    p = add("assoc-jacobi", _cmd_assoc_jacobi, "coefficients of an associated polynomial")
    p.add_argument("--n", type=int, required=True, help=_EXACT_DEGREE_HELP)
    add_params(p)
    p.add_argument("--variant", choices=("V", "calV"), default="V")

    p = add("rep-check", _cmd_rep_check, "compare a representation with the recurrence")
    p.add_argument("--n", type=int, required=True, help=_EXACT_DEGREE_HELP)
    p.add_argument("--which", choices=("rep1", "rep2", "rep3"), required=True)
    p.add_argument("--rep1-coeff", type=_rational, help="applies only to rep1; default 455/3456")

    p = add("explicit-check", _cmd_explicit_check, "compare an explicit formula with the recurrence")
    p.add_argument("--n", type=int, required=True, help=_EXACT_DEGREE_HELP)
    p.add_argument(
        "--form",
        choices=("binomial", "hypergeometric", "assoc-v", "assoc-calv"),
        default="binomial",
    )
    add_params(p, "assoc-v and assoc-calv")

    p = add("asymptotic", _cmd_asymptotic, "asymptotic value against the recurrence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=_finite, required=True)
    p.add_argument("--tol", type=_tolerance, default=None)

    p = add("genfun", _cmd_genfun, "generating-function identity residual")
    p.add_argument(
        "--which",
        choices=("fjk", "uy", "catalan", "at-zero", "at-one"),
        required=True,
    )
    p.add_argument("--n", type=int, required=True, help="truncation order")
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--x", type=_finite, help="applies only to fjk, uy and catalan; default 0.5")
    add_params(p, "fjk and uy")
    p.add_argument("--tol", type=_tolerance, default=None)

    p = add("weight", _cmd_weight, "orthogonality weight at a point")
    p.add_argument("--x", type=_finite, required=True, help="point in (0, 1728)")

    p = add("gram", _cmd_gram, "Gram matrix of the first Atkin polynomials")
    p.add_argument("--n", type=int, required=True, help="largest degree, at most %d" % weight.MAX_GRAM_DEGREE)

    p = add("supersingular", _cmd_supersingular, "reduction check against the truncated Kaneko-Zagier 2F1")
    p.add_argument("--pmax", type=int, required=True)

    add("selftest", _cmd_selftest, "run the full acceptance suite")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, provenance, code = args.handler(args)
    except DomainError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 1
    except AtkinError as exc:
        print("%s: %s: %s" % (parser.prog, type(exc).__name__, exc), file=sys.stderr)
        return 2
    _emit(args.command, inputs, results, provenance, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
