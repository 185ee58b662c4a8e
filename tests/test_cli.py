"""Command-line envelope: shape, determinism, exit codes."""

import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys

import pytest

import atkinpoly
from atkinpoly import cli, weight
from atkinpoly.cli import MAX_EXACT_DEGREE, main


def _refuse_constant(name):
    raise ValueError("stdout holds the non-standard JSON token %s" % name)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    if out:  # strict JSON: NaN and Infinity leaking into an envelope fail here
        json.loads(out, parse_constant=_refuse_constant)
    return code, out


def test_atkin_example(capsys):
    code, out = _run(capsys, ["atkin", "--n", "2", "--scale", "original"])
    assert code == 0
    env = json.loads(out)
    assert set(env) == {"command", "inputs", "results", "provenance"}
    assert env["command"] == "atkin"
    assert env["results"]["coefficients"] == ["269280", "-1640", "1"]
    assert env["inputs"] == {"n": 2, "scale": "original"}


def test_rationals_are_canonical_strings(capsys):
    code, out = _run(
        capsys,
        ["assoc-jacobi", "--n", "1", "--alpha", "1/2", "--beta", "-2/3",
         "--c", "7/12"],
    )
    assert code == 0
    env = json.loads(out)
    assert env["results"]["coefficients"] == ["-115/216", "1"]
    assert env["inputs"]["beta"] == "-2/3"


def test_output_is_deterministic(capsys):
    _, first = _run(capsys, ["atkin", "--n", "5", "--scale", "normalized"])
    _, second = _run(capsys, ["atkin", "--n", "5", "--scale", "normalized"])
    assert first == second


def test_pretty_flag_changes_layout_not_content(capsys):
    _, compact = _run(capsys, ["atkin", "--n", "3"])
    _, pretty = _run(capsys, ["atkin", "--n", "3", "--pretty"])
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_checks_do_not_use_the_coefficient_recurrence(capsys, monkeypatch):
    # the checks compare against the three-term recurrence: with the
    # coefficient route broken and its memos empty, they give the same envelopes
    atkin_module = importlib.import_module("atkinpoly.atkin")
    runs = [["rep-check", "--n", "7", "--which", which] for which in ("rep1", "rep2", "rep3")]
    runs += [["explicit-check", "--n", "9", "--form", form] for form in ("binomial", "hypergeometric")]
    runs.append(["supersingular", "--pmax", "37"])
    before = [_run(capsys, argv) for argv in runs]

    def broken(n):
        raise AssertionError("the coefficient recurrence was called at n=%d" % n)

    monkeypatch.setattr(atkin_module, "_coefficient_recurrence", broken)
    monkeypatch.setattr(atkin_module, "_ATKIN", {})
    monkeypatch.setattr(atkin_module, "_NORMALIZED", {})
    with pytest.raises(AssertionError, match="coefficient recurrence was called"):
        atkin_module.atkin(3)
    for argv, (code, out) in zip(runs, before):
        assert code == 0
        assert _run(capsys, argv) == (code, out), argv


def test_rep_check_success(capsys):
    code, out = _run(capsys, ["rep-check", "--n", "0", "--which", "rep3"])
    assert code == 0
    env = json.loads(out)
    assert env["results"]["matched"] is True
    assert env["results"]["representation"] == ["-5/12", "1"]


def test_rep_check_detects_bad_scalar(capsys):
    code, out = _run(
        capsys,
        ["rep-check", "--n", "1", "--which", "rep1", "--rep1-coeff", "91/384"],
    )
    assert code == 2
    env = json.loads(out)
    assert env["results"]["matched"] is False


def test_explicit_check(capsys):
    code, out = _run(capsys, ["explicit-check", "--n", "4", "--form", "binomial"])
    assert code == 0
    assert json.loads(out)["results"]["matched"] is True


def test_asymptotic_with_tolerance(capsys):
    code, out = _run(
        capsys, ["asymptotic", "--n", "200", "--theta", "1.0", "--tol", "0.05"]
    )
    assert code == 0
    env = json.loads(out)
    assert env["results"]["relative_error"] <= 0.05
    assert "precision" in env["results"]
    # an unmeetable tolerance flips the exit code, not the payload
    code2, out2 = _run(
        capsys, ["asymptotic", "--n", "200", "--theta", "1.0", "--tol", "1e-12"]
    )
    assert code2 == 2
    assert json.loads(out2)["results"]["relative_error"] == env["results"]["relative_error"]


def test_genfun_residual(capsys):
    code, out = _run(capsys, ["genfun", "--which", "at-one", "--n", "40", "--t", "0.15"])
    assert code == 0
    assert json.loads(out)["results"]["residual"] <= 1e-8


def test_provenance_names_the_method(capsys):
    code, out = _run(capsys, ["gram", "--n", "1"])
    assert code == 0
    assert json.loads(out)["provenance"] == {
        "matrix": "tanh-sinh quadrature against the weight, split at 864"
    }
    code, out = _run(capsys, ["supersingular", "--pmax", "13"])
    assert code == 0
    env = json.loads(out)
    assert env["provenance"] == {
        "records": "truncated Kaneko-Zagier 2F1 over F_p against the recurrence reduced mod p"
    }
    assert env["results"] == {
        "records": [
            {"p": 5, "degree": 1, "matched": True},
            {"p": 7, "degree": 1, "matched": True},
            {"p": 11, "degree": 2, "matched": True},
            {"p": 13, "degree": 1, "matched": True},
        ]
    }


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["atkin"])  # --n missing
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["atkin", "--n", "2", "--scale", "sideways"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flag, argv", (
    ("--t", ["genfun", "--which", "fjk", "--n", "5"]),
    ("--x", ["genfun", "--which", "catalan", "--n", "5", "--t", "0.2"]),
    ("--x", ["weight"]),
    ("--theta", ["asymptotic", "--n", "20"]),
    ("--tol", ["asymptotic", "--n", "20", "--theta", "1.0"]),
    ("--tol", ["genfun", "--which", "at-zero", "--n", "5", "--t", "0.3"]),
))
def test_non_finite_floats_are_usage_errors(capsys, flag, argv):
    for value in ("nan", "inf", "-inf", "1e999", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["%s=%s" % (flag, value)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument %s: expected a finite number, got %r" % (flag, value) in captured.err


@pytest.mark.parametrize("argv", (
    ["asymptotic", "--n", "5", "--theta", "0.7"],
    ["genfun", "--which", "at-zero", "--n", "5", "--t", "0.3"],
))
def test_negative_tolerance_is_a_usage_error(capsys, argv):
    for value in ("-1", "-1e-300"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", value])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --tol: expected a nonnegative tolerance, got %r" % value in captured.err
    # a zero tolerance is still a tolerance: the check runs and reports
    code, out = _run(capsys, argv + ["--tol", "0"])
    assert code in (0, 2) and json.loads(out)["inputs"]["tol"] == 0


@pytest.mark.parametrize("spelled, plain", [("-1e-3", "-0.001"), ("-.5", "-0.5"), ("-5E-1", "-0.5")])
def test_negative_floats_in_any_spelling(capsys, spelled, plain):
    argv = ["genfun", "--which", "at-zero", "--n", "5", "--t"]
    assert _run(capsys, argv + [spelled]) == _run(capsys, argv + [plain])
    code, out = _run(capsys, ["assoc-jacobi", "--n", "1", "--alpha", "-2/3", "--beta", spelled, "--c", "1"])
    assert code == 0
    assert json.loads(out)["inputs"]["alpha"] == "-2/3"


def test_domain_errors_exit_one(capsys):
    code = main(["weight", "--x", "2000"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err


# every (subcommand, form, flag) whose form does not read the flag
_UNREAD_FLAGS = (
    [(["rep-check", "--n", "2", "--which", rep], "--rep1-coeff", "1/2", "rep1") for rep in ("rep2", "rep3")]
    + [
        (["explicit-check", "--n", "3", "--form", form], flag, "1/7", "assoc-v and assoc-calv")
        for form in ("binomial", "hypergeometric")
        for flag in ("--alpha", "--beta", "--c")
    ]
    + [
        (["genfun", "--which", which, "--n", "5", "--t", "0.1"], flag, "1/7", "fjk and uy")
        for which in ("catalan", "at-zero", "at-one")
        for flag in ("--alpha", "--beta", "--c")
    ]
    + [
        (["genfun", "--which", which, "--n", "5", "--t", "0.1"], "--x", "0.3", "fjk, uy and catalan")
        for which in ("at-zero", "at-one")
    ]
)


@pytest.mark.parametrize(
    "argv, flag, value, forms", _UNREAD_FLAGS, ids=[" ".join(argv + [flag]) for argv, flag, *_ in _UNREAD_FLAGS]
)
def test_rep1_coeff_with_another_representation_exits_one(capsys, monkeypatch, argv, flag, value, forms):
    # a flag the form does not read is refused, not dropped, and before
    # any polynomial or series of the form is computed
    for target, name in ((cli, "kz_explicit"), (cli, "_three_term"), (cli, "genfun"),
                         (cli.aj, "ourrep_explicit"), (cli.aj, "atkin_via_representation")):
        monkeypatch.setattr(target, name, None)
    code = main(argv + [flag, value])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "atkinpoly: error: %s only applies to %s\n" % (flag, forms)


@pytest.mark.parametrize("argv, message", [
    # a parameter past the range of a double used to leave cli.main as an OverflowError
    (["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--alpha", "1e400"],
     "--alpha, --beta and --c must lie in the range of a double"),
    (["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--c", "-1e400"],
     "--alpha, --beta and --c must lie in the range of a double"),
    # a coefficient past the int-to-str digit limit used to leave it as a ValueError
    (["assoc-jacobi", "--n", "13", "--alpha", "1e300", "--beta", "0", "--c", "-1/12"],
     "a rational has more digits than Python's int-to-str limit"),
])
def test_huge_parameters_are_domain_errors(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "atkinpoly: error: %s\n" % message


_S1 = {"alpha": "1/2", "beta": "-2/3", "c": "7/12"}

# each subcommand and form with only its required flags, and the inputs
# its envelope echoes: every flag the form reads, given or defaulted
_ECHOES = (
    (["atkin", "--n", "2"], {"n": 2, "scale": "original"}),
    (["assoc-jacobi", "--n", "2", "--alpha", "1/2", "--beta", "-2/3", "--c", "7/12"],
     {"n": 2, "variant": "V", **_S1}),
    (["rep-check", "--n", "2", "--which", "rep1"], {"n": 2, "which": "rep1"}),
    (["rep-check", "--n", "2", "--which", "rep1", "--rep1-coeff", "455/3456"],
     {"n": 2, "which": "rep1", "rep1_coeff": "455/3456"}),
    (["rep-check", "--n", "2", "--which", "rep2"], {"n": 2, "which": "rep2"}),
    (["explicit-check", "--n", "2"], {"n": 2, "form": "binomial"}),
    (["explicit-check", "--n", "2", "--form", "hypergeometric"], {"n": 2, "form": "hypergeometric"}),
    (["explicit-check", "--n", "2", "--form", "assoc-v"], {"n": 2, "form": "assoc-v", **_S1}),
    (["explicit-check", "--n", "2", "--form", "assoc-calv"], {"n": 2, "form": "assoc-calv", **_S1}),
    (["asymptotic", "--n", "50", "--theta", "1.0"], {"n": 50, "theta": 1.0}),
    (["asymptotic", "--n", "50", "--theta", "1.0", "--tol", "0.5"], {"n": 50, "theta": 1.0, "tol": 0.5}),
    (["genfun", "--which", "fjk", "--n", "40", "--t", "0.15"],
     {"which": "fjk", "n": 40, "t": 0.15, "x": 0.5, "tol": 1e-08, **_S1}),
    (["genfun", "--which", "uy", "--n", "40", "--t", "0.15"],
     {"which": "uy", "n": 40, "t": 0.15, "x": 0.5, "tol": 1e-08, **_S1}),
    (["genfun", "--which", "catalan", "--n", "40", "--t", "0.15"],
     {"which": "catalan", "n": 40, "t": 0.15, "x": 0.5, "tol": 1e-08}),
    (["genfun", "--which", "at-zero", "--n", "40", "--t", "0.15"], {"which": "at-zero", "n": 40, "t": 0.15, "tol": 1e-08}),
    (["genfun", "--which", "at-one", "--n", "40", "--t", "0.15"], {"which": "at-one", "n": 40, "t": 0.15, "tol": 1e-08}),
    (["weight", "--x", "720"], {"x": 720.0}),
    (["gram", "--n", "1"], {"n": 1}),
    (["supersingular", "--pmax", "13"], {"pmax": 13}),
)


@pytest.mark.parametrize("argv, inputs", _ECHOES, ids=[" ".join(argv) for argv, _ in _ECHOES])
def test_inputs_echo_what_the_form_reads(capsys, argv, inputs):
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["inputs"] == inputs


@pytest.mark.parametrize("argv", (
    ["assoc-jacobi", "--n", "200", "--alpha", "1e4400", "--beta", "0", "--c", "1"],
    ["explicit-check", "--n", "200", "--form", "assoc-v", "--alpha", "1e4400"],
    ["rep-check", "--n", "200", "--which", "rep1", "--rep1-coeff", "1e4400"],
))
def test_unprintable_inputs_are_refused_before_computing(capsys, monkeypatch, argv):
    # the inputs are echoed before any polynomial is computed, so a value
    # that cannot be printed is refused at once, not after the degree-200 work
    for name in ("assoc_V", "assoc_calV", "wimp_V_explicit", "im_calV_explicit", "atkin_via_representation"):
        monkeypatch.setattr(cli.aj, name, None)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "atkinpoly: error: a rational has more digits than Python's int-to-str limit\n"


def test_weight_at_a_subnormal_point(capsys):
    # j/1728 is subnormal here; weight_w reads its powers from j itself
    code, out = _run(capsys, ["weight", "--x", "1e-315"])
    assert code == 0
    assert json.loads(out)["results"]["w"] == weight.weight_w(1e-315)


def test_exact_degree_cap(capsys):
    over = str(MAX_EXACT_DEGREE + 1)
    for argv in (
        ["assoc-jacobi", "--n", over, "--alpha", "1/2", "--beta", "-2/3", "--c", "7/12"],
        ["rep-check", "--n", over, "--which", "rep2"],
        ["explicit-check", "--n", over, "--form", "hypergeometric"],
    ):
        assert main(argv) == 1
        assert "capped at %d" % MAX_EXACT_DEGREE in capsys.readouterr().err
    code, out = _run(capsys, ["atkin", "--n", str(MAX_EXACT_DEGREE)])
    assert code == 0
    assert len(json.loads(out)["results"]["coefficients"]) == MAX_EXACT_DEGREE + 1
    src = os.path.dirname(os.path.dirname(atkinpoly.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "atkinpoly.cli", "atkin", "--n", over],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "capped at %d" % MAX_EXACT_DEGREE in proc.stderr


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "atkinpoly.cli", "atkin", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"]["coefficients"] == ["-720", "1"]


def test_readme_examples_run_as_documented(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        examples = [line.split("$ atkinpoly ", 1)[1] for line in handle if line.lstrip().startswith("$ atkinpoly ")]
    assert examples
    for example in examples:
        command, _, comment = example.partition("#")
        code, _ = _run(capsys, shlex.split(command))
        assert code == (2 if comment.strip() == "exits 2" else 0), example


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(atkinpoly.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, atkinpoly, atkinpoly.cli; print([m for m in ('numpy', 'sympy') if m in sys.modules])"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_loads_no_dataclasses_inspect_or_selftest():
    # every CLI call pays for what the import loads; selftest is loaded by
    # its own subcommand only
    src = os.path.dirname(os.path.dirname(atkinpoly.__file__))
    heavy = ("dataclasses", "inspect", "atkinpoly.selftest")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, atkinpoly, atkinpoly.cli; print([m for m in %r if m in sys.modules])" % (heavy,)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _run_fresh(argv):
    """The CLI in a fresh interpreter, with this checkout's package."""
    src = os.path.dirname(os.path.dirname(atkinpoly.__file__))
    return subprocess.run(
        [sys.executable, "-m", "atkinpoly.cli"] + argv,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_overflowing_degrees_exit_one_without_traceback():
    for argv in (
        ["asymptotic", "--n", "540", "--theta", "0.7"],
        ["genfun", "--which", "at-zero", "--n", "5000", "--t", "0.3"],
        ["genfun", "--which", "catalan", "--n", "800", "--x", "0.5", "--t", "0.3"],
        ["genfun", "--which", "fjk", "--n", "1000", "--x", "0.5", "--t", "0.3"],
        ["genfun", "--which", "uy", "--n", "1000", "--x", "0.5", "--t", "0.3"],
        # a power in the closed form's denominator underflows to 0.0
        ["asymptotic", "--n", "100", "--theta", "1e-280"],
        ["genfun", "--which", "uy", "--n", "40", "--t", "0.5", "--x", "1e-200"],
        ["genfun", "--which", "catalan", "--n", "40", "--t", "0.5", "--x", "1e-250"],
        ["genfun", "--which", "fjk", "--n", "40", "--t", "0.5", "--x", "1e-300"],
    ):
        proc = _run_fresh(argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "error" in proc.stderr


def test_parameter_poles_exit_one_without_traceback():
    # a pole of the 4F3 behind the explicit V form, of lambda_2, and of the
    # scale factors of the U/Y pair (c + 1 + n = 0) and of the profile (b = 0)
    for argv, message in (
        (["explicit-check", "--n", "3", "--form", "assoc-v", "--alpha", "0", "--beta", "0", "--c", "-1"],
         "denominator parameter 0 vanishes before the series terminates"),
        (["assoc-jacobi", "--n", "5", "--alpha", "0", "--beta", "0", "--c", "-5/2"],
         "lambda denominator vanishes at index 2"),
        (["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--alpha", "1/3", "--beta", "1/3", "--c", "-2"],
         "scale factor has a pole at index 2"),
        (["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--beta", "0"],
         "scale factor has a pole at index 1"),
        # poles of the scale of the degree-one seed: alpha + beta + 2c = -1, -2
        # (for fjk at alpha + beta = 0, -1)
        (["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--alpha", "1/2", "--beta", "-1/2"],
         "the scale of the degree-one seed has a pole"),
        (["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--alpha", "1/2", "--beta", "-3/2"],
         "the scale of the degree-one seed has a pole"),
        (["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--alpha", "1/3", "--beta", "0", "--c", "-2/3"],
         "the scale of the degree-one seed has a pole"),
        # a 2F1 denominator parameter at 0: c itself for fjk, 1 + beta for uy
        (["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--c", "0"],
         "denominator parameter 0.0 is a nonpositive integer"),
        (["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--beta", "-1"],
         "denominator parameter 0.0 is a nonpositive integer"),
        # a pole of a generating-series coefficient: past the horizon, where
        # the closed form refuses its denominator parameter a + b + 1 (fjk)
        # or alpha + beta + 2c + 2 (uy) at -1, and at the first coefficient
        # (fjk at a + b + 1 = 0)
        (["genfun", "--which", "fjk", "--alpha", "0", "--beta", "-2", "--c", "2", "--n", "1", "--t", "0.5", "--x", "0.3"],
         "denominator parameter -1.0 is a nonpositive integer"),
        (["genfun", "--which", "uy", "--alpha", "-3", "--beta", "0", "--c", "0", "--n", "1", "--t", "0.3", "--x", "0.3"],
         "denominator parameter -1.0 is a nonpositive integer"),
        (["genfun", "--which", "fjk", "--alpha", "-10/3", "--beta", "7/3", "--c", "-5/2", "--x", "0.25", "--t", "-0.9",
          "--n", "1"],
         "scale factor has a pole at index 1"),
    ):
        proc = _run_fresh(argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert proc.stderr == "atkinpoly: error: %s\n" % message  # one line, no traceback


def test_rounded_pole_of_a_connection_series_exits_two_without_traceback():
    # alpha = -2 makes c - a - b mathematically 2 in one 2F1 of the U/Y
    # seeds; it rounds off 2, but a + b - c + 1 rounds to exactly -1.0
    proc = _run_fresh(["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--alpha", "-2"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("atkinpoly: NonConvergent:")
    assert "Traceback" not in proc.stderr


def test_values_past_a_double_exit_one_without_traceback():
    # a gamma factor of the connection formula overflows (c, beta past 171)
    # or its reciprocal divides by an underflowed 0.0 (alpha = -1e6), or a
    # power in a closed form overflows at tiny x
    for argv in (
        ["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--c", "180"],
        ["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--c", "200"],
        ["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--beta", "200"],
        ["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--alpha", "-1e6"],
        ["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--alpha", "-1e6"],
        ["genfun", "--which", "fjk", "--n", "5", "--t", "0.3", "--x", "1e-9", "--alpha", "-171.5"],
        ["genfun", "--which", "uy", "--n", "5", "--t", "0.3", "--x", "1e-9", "--alpha", "-171.5"],
        # fjk: c - a - b overflows to an infinity; uy: a parameter of its 2F1
        # calls does, and c - a - b is inf - inf = nan
        ["genfun", "--which", "fjk", "--n", "3", "--t", "0", "--x", "0.7", "--alpha", "1e308", "--beta", "1e308", "--c", "1e308"],
        ["genfun", "--which", "uy", "--n", "3", "--t", "0", "--x", "0.7", "--alpha", "1e308", "--beta", "1e308", "--c", "1e308"],
    ):
        proc = _run_fresh(argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert proc.stderr.startswith("atkinpoly: error: ")
        assert "Traceback" not in proc.stderr


def test_parameter_sweep_raises_nothing_out_of_main(capsys):
    # large, negative and pole parameters, at both ends of x and both signs
    # of t; _run also refuses NaN and Infinity in an envelope
    for which in ("fjk", "uy"):
        for flag in ("--alpha", "--beta", "--c"):
            for value in ("0", "-1", "-2", "171.5", "-171.5", "250", "-1e6"):
                for x in ("1e-9", "0.5", "0.999"):
                    for t in ("0.3", "-0.9"):
                        argv = ["genfun", "--which", which, "--n", "5", "--x", x, "--t", t, flag, value]
                        code, _ = _run(capsys, argv)
                        assert code in (0, 1, 2), argv


def test_truncation_orders_outside_the_domain_exit_one_without_traceback():
    for argv, message in (
        (["genfun", "--which", "uy", "--n", "0", "--t", "0.3"], "N must be positive"),
        (["genfun", "--which", "at-zero", "--n", "-5", "--t", "0.3"], "N must be positive"),
        (["genfun", "--which", "at-one", "--n", "0", "--t", "0.3"], "N must be positive"),
        (["gram", "--n", "-1"], "gram --n must lie in 0..8"),
        (["gram", "--n", "9"], "gram --n must lie in 0..8"),
    ):
        proc = _run_fresh(argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert proc.stderr == "atkinpoly: error: %s\n" % message  # one line, no traceback


def test_chebyshev_is_the_zero_association_at_alpha_plus_beta_minus_one(capsys):
    # at c = 0 the factor alpha + beta + 1 of lambda_0 cancels against its
    # denominator, so the calligraphic family is the monic Chebyshev T_n
    cheb = ["--n", "4", "--alpha", "-1/2", "--beta", "-1/2", "--c", "0"]
    t4 = ["1/128", "-1/4", "5/4", "-2", "1"]
    code, out = _run(capsys, ["assoc-jacobi"] + cheb + ["--variant", "calV"])
    assert code == 0
    assert json.loads(out)["results"]["coefficients"] == t4
    code, out = _run(capsys, ["explicit-check", "--form", "assoc-calv"] + cheb)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["matched"] is True
    assert results["explicit"] == t4
    # V keeps the index-zero death rate, whose denominator still vanishes
    assert main(["assoc-jacobi"] + cheb + ["--variant", "V"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "atkinpoly: error: mu denominator vanishes at index 0\n"


# exit code and sha256 of the stdout of each invocation at the degree cap,
# of selftest, of the float envelopes at the weight's ends, the full Gram
# matrix and the float horizons, and of three failed checks: a change to
# how the exact families, the explicit forms, the series, the weight or a
# verdict are computed must leave these envelopes byte for byte as they are
GOLDEN_STDOUT = (
    (["atkin", "--n", "200", "--scale", "normalized"],
     0, "ec53b10a41f14afd93f9abe871b70cce54144d25ba286d5a08d119ef10a0893c"),
    (["explicit-check", "--n", "200", "--form", "hypergeometric"],
     0, "19bc430261b8e5eca08c52a34068e4b56ebe98690a8874c3a2a61d76d12f997a"),
    (["explicit-check", "--n", "200", "--form", "binomial"],
     0, "1aeb6b177b32e697100995e04a44002a504bb2e327d9145c0dac50f7b873385c"),
    (["assoc-jacobi", "--n", "200", "--alpha", "1/2", "--beta", "-2/3", "--c", "7/12", "--variant", "calV"],
     0, "7936c429bb0dd6fb41ae37ff3e8f3e11f57760f564b2a707cc84ee507a7f1d7c"),
    (["assoc-jacobi", "--n", "200", "--alpha", "-1/2", "--beta", "2/3", "--c", "5/12", "--variant", "V"],
     0, "b41c8636cba2bfdba913a39c0e78bd388cbbecfaef5d893d5b6b034d864acc0b"),
    (["rep-check", "--n", "200", "--which", "rep1"],
     0, "88ad0df3881e4d91844797cc13e8669f1cddfa40a63ceda60ac64937ac66c03d"),
    (["rep-check", "--n", "200", "--which", "rep2"],
     0, "269bc02139c00a4b55546484dbe369536f3ee984edf53651f33093fbfdbccc19"),
    (["rep-check", "--n", "200", "--which", "rep3"],
     0, "632fc941f40c26f1a868e0475ba23a3b998ba8796827a68037287cf47b1965d9"),
    (["explicit-check", "--n", "200", "--form", "assoc-v"],
     0, "157c813c9ab8831ca5bf9e3445dee7e9e88941df8873584689d3745b46e27ad8"),
    (["explicit-check", "--n", "200", "--form", "assoc-calv", "--alpha", "-1/2", "--beta", "2/3", "--c", "5/12"],
     0, "b4b878b3265ee86ff8ba8ec88d185f725928250cfec754cb02e1ad9c8931aae7"),
    # a Chebyshev family, (alpha, beta) = (1/2, -1/2), where n + c = 0 cancels at index 0
    (["assoc-jacobi", "--n", "200", "--alpha", "1/2", "--beta", "-1/2", "--c", "0", "--variant", "calV"],
     0, "76232ea8073c083c42bb09fb2451aa2fd7d83ba08598a28e8fe4a0f44dd75343"),
    (["selftest"],
     0, "cc9fc74cd2179f51456135342fbbc6a10b57cf5c1129649a3a85f3e61a1859ae"),
    (["weight", "--x", "720"],
     0, "105b844528d40a443cc1018273ecd3df47d0288f384526d308a0e6517f3c2a22"),
    (["weight", "--x", "1727.9999999999998"],
     0, "2aebfab1bf6e4c6e83848f829b8a5fbbcac69d879b2235e8dbff44ae4b68dd92"),
    (["gram", "--n", "8"],
     0, "6afc4c773d8a9920707cbfcd7dc6c3eeecf3bfd21d566b3d9ddb661bc5bc0210"),
    (["asymptotic", "--n", "200", "--theta", "1.0", "--tol", "0.05"],
     0, "99d7a7715ba719a059d52e1db62981cc6811df588d3f3ad2d98d72d72504d8dd"),
    (["genfun", "--which", "fjk", "--n", "500", "--t", "0.3"],
     0, "cf6ef5e62c93955e0546c1eda0415e6e3d56832941d936b9b5083f2ced7d8bbb"),
    (["genfun", "--which", "uy", "--n", "500", "--t", "0.3"],
     0, "79dd81a2d464bda5deaa697afe45db43ca74a147993598b67f63ad2253f20694"),
    (["genfun", "--which", "catalan", "--n", "518", "--x", "0.3", "--t", "0.2"],
     0, "e4d0b500732618a89db1e5cdbc058de18228e273f484edb59ffbc1bd752e1756"),
    (["genfun", "--which", "at-zero", "--n", "518", "--t", "0.3"],
     0, "45bbbd698b2f3b72c2dc9170fed828cd88c850ff7ef58f9666111a0a759ab05c"),
    (["genfun", "--which", "at-one", "--n", "518", "--t", "0.3"],
     0, "4278400232b06a6935df1d4b6dd0f281c69b4ca4b8d9a41ddbf2034d5d8b54b0"),
    # the edges of the float stepper: the last degree below the overflow
    # of 2^(2n+1), and the shortest sums, which read only seed values
    (["asymptotic", "--n", "511", "--theta", "1.0"],
     0, "31474c73a2d9631944d7b3e63d7f1e352cf5854b6978b6f7d1c2acf138214c64"),
    (["genfun", "--which", "fjk", "--n", "1", "--t", "0.3", "--tol", "1"],
     0, "9e8d7afbf385a0afe8b28150c101578a73fa840381a55d809a29b364f7c121b8"),
    (["genfun", "--which", "uy", "--n", "1", "--t", "0.3", "--tol", "1"],
     0, "9debd5cd1919ea693ebeda143cb08da1f86baaded877e6644e902155970df76d"),
    (["genfun", "--which", "catalan", "--n", "1", "--x", "0.3", "--t", "0.2", "--tol", "1"],
     0, "2b0e25c66a45366e9fb9ab098dd4c45667c23e8c6aa3f7ef829fb1760f82174d"),
    # failed checks: a printed scalar that misses, a tolerance the
    # approximation cannot meet and a series cut short at N = 5
    (["rep-check", "--n", "200", "--which", "rep1", "--rep1-coeff", "91/384"],
     2, "990c6c83472c6092d3263e71552003bbf5439bd8af312a356dc95971e9276d15"),
    (["asymptotic", "--n", "200", "--theta", "1.0", "--tol", "1e-12"],
     2, "8072afcbf0a5fcd2ff2c23c0266111757b98f80bc6d3be41706dbf81e7b885af"),
    (["genfun", "--which", "uy", "--n", "5", "--t", "0.3"],
     2, "ac7cf41f804cfb87598a3ad3c329c5187d6c2cb9cdcdece234ed09fc4acc374e"),
)


@pytest.mark.parametrize("argv, exit_code, digest", GOLDEN_STDOUT, ids=[" ".join(argv) for argv, *_ in GOLDEN_STDOUT])
def test_envelopes_at_the_cap_are_byte_identical(capsys, argv, exit_code, digest):
    code, out = _run(capsys, argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
