"""Command-line interface.

Every subcommand prints a single JSON envelope on stdout:

    {"command": ..., "inputs": ..., "results": ..., "provenance": ...}

Exact rationals are serialized as canonical num/den strings, reals as
JSON numbers in shortest round-trip decimal (the results block carries a
precision note whenever reals appear).  Output is deterministic: sorted
keys, no timestamps.

A flag that only some forms read applies only to those forms; any other
form refuses it with exit 1.  --alpha, --beta and --c apply only to
explicit-check assoc-v|assoc-calv and genfun fjk|uy (default S_SET[1] =
(1/2, -2/3, 7/12)), --x only to genfun fjk|uy|catalan (default 0.5), and
--rep1-coeff only to rep-check rep1 (default 455/3456).

inputs holds every flag the form reads, given or defaulted (--rep1-coeff
only when given), and nothing else.  Before any handler runs, main checks
the --n cap MAX_EXACT_DEGREE of the exact subcommands, then unread flags,
then unprintable inputs; gram --n and supersingular --pmax are bounded
first thing in their handlers.

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
    kz_explicit,
)
from .errors import AtkinError, DomainError
from .exact import rat_str
from .hypergeom import atkin_asymptotic, atkin_normalized_value, double_params

_PRECISION = "ieee-754 double, shortest round-trip decimal"

# Largest --n of the exact subcommands (atkin, assoc-jacobi, rep-check,
# explicit-check), and the largest degree supersingular reduces.  The
# slowest of them at the cap, rep-check, takes 0.29-0.48 s as a fresh
# process on a 2-vCPU Xeon VM (every explicit-check form 0.18-0.34 s);
# without a cap, the coefficients of A_n pass Python's 4300-digit
# int-to-str limit by n of about 1600.
MAX_EXACT_DEGREE = 200


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


def _echo(value):
    """A flag's value as the envelope shows it: a rational as rat_str."""
    return rat_str(value) if isinstance(value, Fraction) else value


def _names(forms) -> str:
    return forms[0] if len(forms) == 1 else "%s and %s" % (", ".join(forms[:-1]), forms[-1])


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


def _params(args) -> aj.AJParams:
    return aj.AJParams(args.alpha, args.beta, args.c)


def _double_params(args) -> tuple:
    """(alpha, beta, c) as doubles, refused in the words of the flags."""
    try:
        return double_params(_params(args))
    except DomainError:
        raise DomainError("--alpha, --beta and --c must lie in the range of a double") from None


def _cmd_atkin(args):
    poly = atkin(args.n) if args.scale == "original" else atkin_normalized(args.n)
    results = {"degree": args.n, "coefficients": _coeff_strings(poly)}
    provenance = {"coefficients": "recurrence in the coefficient index from the Kaneko-Zagier 2F1 product"}
    return results, provenance, 0


def _cmd_assoc_jacobi(args):
    fn = aj.assoc_V if args.variant == "V" else aj.assoc_calV
    poly = fn(args.n, _params(args))
    results = {"degree": args.n, "coefficients": _coeff_strings(poly)}
    provenance = {"coefficients": "three-term recurrence with shifted index"}
    return results, provenance, 0


def _compared(label, mechanism, candidate, target):
    """Handler result of a check of ``candidate``, made by ``mechanism``, against ``target``."""
    matched = candidate == target
    results = {
        "matched": matched,
        label: _coeff_strings(candidate),
        "recurrence": _coeff_strings(target),
    }
    provenance = {label: mechanism, "recurrence": "three-term recurrence"}
    return results, provenance, 0 if matched else 2


def _cmd_rep_check(args):
    candidate = aj.atkin_via_representation(args.n, args.which.capitalize(), args.rep1_coeff)
    target = _three_term(args.n + 1, normalized=True)
    return _compared("representation", "associated-polynomial combination", candidate, target)


def _cmd_explicit_check(args):
    mechanism = "terminating hypergeometric sums"
    if args.form == "binomial":
        candidate = kz_explicit(args.n)
        target = _three_term(args.n, normalized=True)
        mechanism = "double binomial sum"
    elif args.form == "hypergeometric":
        candidate = aj.ourrep_explicit(args.n)
        target = _three_term(args.n + 1, normalized=True)
    else:
        params = _params(args)
        if args.form == "assoc-v":
            candidate = aj.wimp_V_explicit(args.n, params)
            target = aj.assoc_V(args.n, params)
        else:
            candidate = aj.im_calV_explicit(args.n, params)
            target = aj.assoc_calV(args.n, params)
    return _compared("explicit", mechanism, candidate, target)


def _cmd_asymptotic(args):
    approx = atkin_asymptotic(args.n, args.theta)
    exact = atkin_normalized_value(args.n + 1, math.sin(args.theta) ** 2)
    rel = abs(approx - exact) / abs(exact)
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
    return results, provenance, 2 if args.tol is not None and rel > args.tol else 0


def _cmd_genfun(args):
    provenance = {
        "partial_sum": "truncated series of recurrence-built values",
        "closed_form": "product of Gauss functions at the algebraic substitution",
    }
    if args.which == "uy":
        _double_params(args)  # refused in the words of the flags before gen_uy_check sees them
        r = genfun.gen_uy_check(_params(args), args.x, args.t, args.n)
        residual = max(
            abs(r.u_partial_sum - r.u_closed_form),
            abs(r.y_partial_sum - r.y_closed_form),
        )
        results = r._asdict()
    else:
        if args.which == "fjk":
            lhs, rhs = genfun.fjk_check(*_double_params(args), args.x, args.t, args.n)
            provenance["partial_sum"] = "truncated hypergeometric series"
        elif args.which == "catalan":
            lhs, rhs = genfun.catalan_gen_check(args.x, args.t, args.n)
        elif args.which == "at-zero":
            lhs, rhs = genfun.gen_at_zero(args.t, args.n)
        else:
            lhs, rhs = genfun.gen_at_one(args.t, args.n)
        residual = abs(lhs - rhs)
        results = {"partial_sum": lhs, "closed_form": rhs}
    results["residual"] = residual
    results["precision"] = _PRECISION
    return results, provenance, 0 if residual <= args.tol else 2


def _cmd_weight(args):
    value = weight.weight_w(args.x)
    results = {"w": value, "precision": _PRECISION}
    provenance = {"w": "explicit modulus form in the hypergeometric pair (F, F*)"}
    return results, provenance, 0


def _cmd_gram(args):
    if not 0 <= args.n <= weight.MAX_GRAM_DEGREE:
        raise DomainError("gram --n must lie in 0..%d" % weight.MAX_GRAM_DEGREE)
    size = args.n + 1
    matrix = [[0.0] * size for _ in range(size)]
    for m in range(size):
        for k in range(m, size):
            # the integrand's product p_m p_k commutes, so gram(k, m) is this same double
            matrix[m][k] = matrix[k][m] = weight.gram(m, k)
    results = {"matrix": matrix, "precision": _PRECISION}
    provenance = {"matrix": "tanh-sinh quadrature against the weight, split at 864"}
    return results, provenance, 0


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
    results = {"records": records}
    provenance = {
        "records": "truncated Kaneko-Zagier 2F1 over F_p against the recurrence reduced mod p"
    }
    return results, provenance, 0 if ok else 2


def _cmd_selftest(args):
    from . import selftest  # only this subcommand needs the acceptance suite

    outcomes = selftest.run_all()
    records = [
        {"criterion": r.number, "passed": r.passed, "detail": r.detail}
        for r in outcomes
    ]
    ok = all(r.passed for r in outcomes)
    results = {"criteria": records, "all_passed": ok}
    provenance = {"criteria": "full acceptance suite"}
    return results, provenance, 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="atkinpoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text, exact_degree=False):
        # handler, exact_degree and read_by are bookkeeping that main takes
        # out of the namespace before it echoes the flags
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, exact_degree=exact_degree, read_by=[])
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        if exact_degree:
            p.add_argument("--n", type=int, required=True, help="degree, at most %d" % MAX_EXACT_DEGREE)
        return p

    def read_by(p, flag, selector, forms, default, type=_rational, shown=None):
        # an optional flag that only the forms of --selector read, and its
        # value there when not given; None leaves the default, shown, to
        # the library
        shown = default if shown is None else shown
        p.add_argument(flag, type=type, help="applies only to %s; default %s" % (_names(forms), _echo(shown)))
        p.get_default("read_by").append((flag, selector, forms, default))

    def add_params(p, selector=None, forms=None):
        # --alpha, --beta and --c: required, or read only by the forms of --selector
        for name, default in zip(aj.AJParams._fields, aj.S_SET[1]):
            if forms is None:
                p.add_argument("--" + name, type=_rational, required=True)
            else:
                read_by(p, "--" + name, selector, forms, default)

    p = add("atkin", _cmd_atkin, "coefficients of an Atkin polynomial", exact_degree=True)
    p.add_argument("--scale", choices=("original", "normalized"), default="original")

    p = add("assoc-jacobi", _cmd_assoc_jacobi, "coefficients of an associated polynomial", exact_degree=True)
    add_params(p)
    p.add_argument("--variant", choices=("V", "calV"), default="V")

    p = add("rep-check", _cmd_rep_check, "compare a representation with the recurrence", exact_degree=True)
    p.add_argument("--which", choices=("rep1", "rep2", "rep3"), required=True)
    read_by(p, "--rep1-coeff", "which", ("rep1",), None, shown=aj.REP1_DEFAULT_COEFF)

    p = add("explicit-check", _cmd_explicit_check, "compare an explicit formula with the recurrence", exact_degree=True)
    p.add_argument(
        "--form",
        choices=("binomial", "hypergeometric", "assoc-v", "assoc-calv"),
        default="binomial",
    )
    add_params(p, "form", ("assoc-v", "assoc-calv"))

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
    read_by(p, "--x", "which", ("fjk", "uy", "catalan"), 0.5, type=_finite)
    add_params(p, "which", ("fjk", "uy"))
    p.add_argument("--tol", type=_tolerance, default=1e-8)

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
    # flags is args' own attribute dict: main resolves the flags in it,
    # and the handler reads them from args
    flags = vars(args)
    command, handler, pretty = flags.pop("command"), flags.pop("handler"), flags.pop("pretty")
    exact_degree, read_by = flags.pop("exact_degree"), flags.pop("read_by")
    try:
        # the cap, then an unread flag, then an unprintable input, then the computation
        if exact_degree and args.n > MAX_EXACT_DEGREE:
            raise DomainError("--n capped at %d for exact subcommands" % MAX_EXACT_DEGREE)
        for flag, selector, forms, default in read_by:
            dest = flag[2:].replace("-", "_")
            if flags[selector] in forms:
                if flags[dest] is None:
                    flags[dest] = default
            elif flags[dest] is not None:
                raise DomainError("%s only applies to %s" % (flag, _names(forms)))
        inputs = {dest: _echo(value) for dest, value in flags.items() if value is not None}
        results, provenance, code = handler(args)
    except DomainError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 1
    except AtkinError as exc:
        print("%s: %s: %s" % (parser.prog, type(exc).__name__, exc), file=sys.stderr)
        return 2
    _emit(command, inputs, results, provenance, pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
