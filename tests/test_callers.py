"""Production code is what callers use: every public top-level function of
the package is read by package code, the README or the benchmark's
workloads, apart from a short allowlist, and every private one by package
code outside its own definition, so no test-only helper stays in src/; no
private parameter gets one fixed value from every caller; and the exact core
imports none of the modules built on it and does no float arithmetic."""

import ast
import pathlib
import re

import atkinpoly

_PACKAGE = pathlib.Path(atkinpoly.__file__).parent
_REPO = pathlib.Path(__file__).resolve().parents[1]

# public functions kept although no caller names them
_UNCALLED = {
    # one family's rates at one index: the view of the rates that the module
    # docstring names and the tests read (the engines call _rates_of)
    "aj_rates",
    # the classical Jacobi family, calV at c = 0, kept by decision as the
    # public name of that case
    "monic_jacobi",
}


def _read_names(tree):
    """Every name and attribute a module reads; a def does not read its own name."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_function_has_a_caller():
    defined, read = set(), set()
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }
        if path.name != "__init__.py":  # re-exporting a name does not call it
            read |= _read_names(tree)
    for doc in (_REPO / "README.md", _REPO / "bench" / "workloads.py"):
        read |= set(re.findall(r"\w+", doc.read_text()))
    # the scan saw the package: the CLI entry point and the rate engine are read
    assert {"main", "atkin_rates", "ourrep_explicit"} <= defined & read
    assert defined - read == _UNCALLED


def test_every_private_function_is_read_by_other_package_code():
    # the names of the private top-level defs, and for each top-level
    # statement the def it is, if any, with the names it reads
    private, reads = set(), []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            if own and own.startswith("_"):
                private.add(own)
            if path.name != "__init__.py":
                reads.append((own, _read_names(node)))
    unread = {name for name in private if not any(name in read for own, read in reads if own != name)}
    # the scan saw the package: the primality test and the step kernel are private
    assert {"_is_prime", "_recur"} <= private
    assert unread == set()


def _fixed_argument(node, module_names):
    """The key of an argument that names one value wherever it is written: a
    numeric literal, signed or not, or a module-level name; None otherwise."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _fixed_argument(node.operand, module_names)
        return inner and (type(node.op).__name__,) + inner
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        return ("literal", node.value)
    if isinstance(node, ast.Name) and node.id in module_names:
        return ("name", node.id)
    return None


def test_no_private_parameter_gets_one_value_at_every_call_site():
    # a parameter that every caller sets to the same literal or module
    # constant is a constant of the function, not an input
    params, calls = {}, {}
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        module_names = {
            target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
        }
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                params[node.name] = [a.arg for a in node.args.posonlyargs + node.args.args]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append((node, module_names))
    fixed = set()
    for name, names in params.items():
        for param in names:
            keys = set()
            for call, module_names in calls.get(name, []):
                if any(isinstance(a, ast.Starred) for a in call.args):
                    keys.add(None)
                    continue
                given = dict(zip(names, call.args))
                given.update((k.arg, k.value) for k in call.keywords if k.arg)
                keys.add(_fixed_argument(given[param], module_names) if param in given else None)
            if len(keys) == 1 and None not in keys:
                fixed.add("%s.%s" % (name, param))
    # the scan saw the package: these kernels have several call sites each
    assert all(len(calls[name]) >= 2 for name in ("_series_f21", "_endpoint_seq", "_tanh_sinh_piece"))
    assert fixed == set()


# the exact core, and the float, interface and acceptance modules built on it
_CORE = {"errors", "exact", "fp", "ratpoly", "assoc_jacobi", "atkin", "supersingular"}
_ABOVE = {"hypergeom", "genfun", "weight", "cli", "selftest"}


def _imported_modules(tree):
    """The last dotted part of every module imported anywhere in ``tree``, a
    deferred import inside a function included; ``from . import x`` and
    ``from atkinpoly import x`` import x."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            last = (node.module or "").split(".")[-1]
            out.add(last)
            if last in ("", "atkinpoly"):
                out |= {alias.name for alias in node.names}
    return out


def test_the_core_imports_nothing_built_on_it():
    modules = {path.stem for path in _PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == _CORE | _ABOVE
    imports = {name: _imported_modules(ast.parse((_PACKAGE / (name + ".py")).read_text())) for name in _CORE}
    # the scan saw the imports: the Atkin family steps on the engine
    assert "ratpoly" in imports["atkin"]
    assert {name: found & _ABOVE for name, found in imports.items() if found & _ABOVE} == {}


def _float_uses(tree):
    """The lines of every float literal and every ``float()`` call in ``tree``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
    )


def test_the_core_does_no_float_arithmetic():
    found = {name: _float_uses(ast.parse((_PACKAGE / (name + ".py")).read_text())) for name in _CORE}
    # the scan sees both kinds
    assert _float_uses(ast.parse("y = float(x)\nz = 0.5")) == [1, 2]
    assert {name: lines for name, lines in found.items() if lines} == {}
