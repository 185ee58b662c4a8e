"""The error surface: one exception class per failure kind, and no
other class raised anywhere in the package."""

import ast
import collections
import inspect
import pathlib
import random
import re
from fractions import Fraction

import pytest

import atkinpoly
from atkinpoly import errors
from atkinpoly.assoc_jacobi import (
    S_SET,
    Variant,
    aj_rates,
    assoc_calV,
    assoc_V,
    atkin_via_representation,
    ourrep_explicit,
    wimp_V_explicit,
)
from atkinpoly.assoc_jacobi import AJParams
from atkinpoly.atkin import atkin_at_one, kz_explicit
from atkinpoly.fp import FpPoly, fp_divmod
from atkinpoly.genfun import catalan_gen_check, fjk_check, gen_uy_check
from atkinpoly.hypergeom import (
    atkin_normalized_value_seq,
    buv_combination,
    f21_near_one,
    f21_profile_seq,
    f21_real,
    u_and_y_seq,
)
from atkinpoly.weight import gram, wronskian_residual

_KINDS = {"AtkinError", "DomainError", "NonConvergent", "InternalInconsistency"}

# (module file, enclosing function or None, class) raises that are not
# failure kinds: argparse's own protocol, and the arithmetic error of
# polynomial division by zero
_ALLOWED_ELSEWHERE = {
    ("cli.py", "error", "SystemExit"),
    ("cli.py", "_rational", "ArgumentTypeError"),
    ("cli.py", "_finite", "ArgumentTypeError"),
    ("cli.py", "_tolerance", "ArgumentTypeError"),
    ("fp.py", "fp_divmod", "ZeroDivisionError"),
}


def test_errors_defines_exactly_the_failure_kinds():
    defined = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert defined == _KINDS
    for name in _KINDS - {"AtkinError"}:
        assert getattr(errors, name).__bases__ == (errors.AtkinError,)


def _raised_classes(tree):
    """(enclosing function, raised class name) for every raise statement."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                name = exc.id
            elif isinstance(exc, ast.Attribute):
                name = exc.attr
            else:
                name = ast.dump(exc) if exc is not None else "<bare raise>"
            found.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_package_raises_only_the_failure_kinds():
    package = pathlib.Path(atkinpoly.__file__).parent
    seen = set()
    stray = []
    for path in sorted(package.glob("*.py")):
        for function, name in _raised_classes(ast.parse(path.read_text())):
            if name in _KINDS:
                seen.add(name)
            elif (path.name, function, name) in _ALLOWED_ELSEWHERE:
                seen.add((path.name, function, name))
            else:
                stray.append((path.name, function, name))
    assert stray == []
    # the scan found the raises it should, so it parsed what it meant to
    assert {"DomainError", "NonConvergent", "InternalInconsistency"} <= seen
    assert _ALLOWED_ELSEWHERE <= seen


_D, _N = errors.DomainError, errors.NonConvergent
_NAN = float("nan")
_INF = float("inf")

# (function, arguments outside what it takes, failure kind, message)
_OUTSIDE_THE_DOMAIN = (
    (assoc_V, (-1, S_SET[1]), _D, "degree must be nonnegative"),
    (assoc_calV, (-1, S_SET[1]), _D, "degree must be nonnegative"),
    (wimp_V_explicit, (-1, S_SET[1]), _D, "degree must be nonnegative"),
    (atkin_via_representation, (-1, "Rep1"), _D, "degree must be nonnegative"),
    (ourrep_explicit, (-1,), _D, "degree must be nonnegative"),
    (aj_rates, (S_SET[1], -1, Variant.V), _D, "index must be nonnegative"),
    (kz_explicit, (-1,), _D, "degree must be nonnegative"),
    (atkin_at_one, (0,), _D, "closed form holds for n >= 1"),
    (atkin_normalized_value_seq, (-1, 0.5), _D, "nmax must be nonnegative"),
    # a choice that the enum does not hold
    (atkin_via_representation, (1, "rep1"), _D, "representation must be one of 'Rep1', 'Rep2', 'Rep3', got 'rep1'"),
    (aj_rates, (S_SET[1], 0, "W"), _D, "variant must be one of 'V', 'calV', got 'W'"),
    (f21_near_one, (0.5, 0.5, 1.5, -1e-3), _N, "argument beyond 1"),
    (buv_combination, (3, 1.0), _D, "buv_combination requires x in (0, 1)"),
    (wronskian_residual, (0.0,), _D, "wronskian_residual requires J in (0, 1)"),
    (gram, (-1, 0), _D, "gram degrees must lie in 0..8, got -1"),
    (gram, (0, 9), _D, "gram degrees must lie in 0..8, got 9"),
    # a NaN is refused on entry, not after a series runs to its term cap
    (f21_real, (_NAN, 0.25, 1.5, 0.3), _D, "2F1 parameters and argument must not be NaN"),
    (f21_near_one, (0.5, 0.5, 1.5, _NAN), _D, "2F1 parameters and argument must not be NaN"),
    (fjk_check, (0.3, 1.1, 0.9, 0.25, _NAN, 10), _D, "|t| must be below 1"),
    (catalan_gen_check, (1.5, 0.1, 5), _D, "x must lie in (0, 1)"),
    # parameters so large that the terms only start to fall past the cap
    (f21_real, (1e7, 1e7, 1.0, 0.4), _N, "2F1 series cap reached at x=0.4"),
    (fp_divmod, (FpPoly(5, [1, 1]), FpPoly(5, [5])), ZeroDivisionError, "polynomial division by zero"),
    # an infinite parameter is refused on entry, and so is a c - a - b that
    # overflows, before math.floor meets it
    (f21_real, (_INF, 0.25, 1.5, 0.3), _D, "2F1 parameters must be finite, got (inf, 0.25, 1.5)"),
    (f21_near_one, (_INF, 0.25, 1.5, 0.3), _D, "2F1 parameters must be finite, got (inf, 0.25, 1.5)"),
    (f21_near_one, (-1e308, -1e308, 1e308, 0.3), _D, "c - a - b = inf is past the range of a double"),
    # at the smallest double, t*delta rounds up to x and x - t*delta is 0
    (catalan_gen_check, (5e-324, 0.9, 3), _D, "x - t*delta must stay positive"),
)


def _ids(table):
    """The function names, a repeated one suffixed by its count (the first keeps its bare name)."""
    seen = collections.Counter()
    ids = []
    for fn, *_ in table:
        seen[fn.__name__] += 1
        ids.append(fn.__name__ if seen[fn.__name__] == 1 else "%s-%d" % (fn.__name__, seen[fn.__name__]))
    return ids


@pytest.mark.parametrize("fn, args, kind, message", _OUTSIDE_THE_DOMAIN, ids=_ids(_OUTSIDE_THE_DOMAIN))
def test_degrees_below_the_domain_are_domain_errors(fn, args, kind, message):
    with pytest.raises(kind, match="^%s$" % re.escape(message)):
        fn(*args)


_POLE_PARAMS = tuple(Fraction(v) for v in ("0", "-1", "-2", "-3", "-1/2", "-5/2", "-10/3", "7/3"))

# calls that once ended in ZeroDivisionError: poles of the generating-series
# coefficients (used or past the horizon) and of the U/Y seed at N = 0
_POLE_REPRODUCTIONS = (
    (fjk_check, (0.0, -2.0, 2.0, 0.3, 0.5, 1)),
    (gen_uy_check, (AJParams(-3, 0, 0), 0.3, 0.3, 1)),
    (fjk_check, (float(Fraction(-10, 3)), float(Fraction(7, 3)), -2.5, 0.25, -0.9, 1)),
    (u_and_y_seq, (AJParams(-2, Fraction(-1, 2), -1), 0.3, 0)),
)


def test_parameter_poles_return_or_raise_failure_kinds():
    # the runtime complement of the raise scan above, which cannot see a
    # division by zero: a seeded sample of parameters at poles
    rng = random.Random(2013)
    calls = list(_POLE_REPRODUCTIONS)
    for _ in range(400):
        params = AJParams(*(rng.choice(_POLE_PARAMS) for _ in range(3)))
        a, b, d = (float(p) for p in params)
        x, t, N = rng.choice((0.25, 0.3)), rng.choice((0.0, 0.3, -0.3, -0.9)), rng.choice((0, 1, 2, 5))
        calls += [
            (u_and_y_seq, (params, x, N)),
            (f21_profile_seq, (a, b, d, x, N)),
            (fjk_check, (a, b, d, x, t, N)),
            (gen_uy_check, (params, x, t, N)),
            (catalan_gen_check, (x, t, N)),
        ]
    escaped = []
    for fn, args in calls:
        try:
            fn(*args)
        except errors.AtkinError:
            pass
        except Exception as exc:  # anything else escapes the error surface
            escaped.append((fn.__name__, args, repr(exc)))
    assert escaped == []
