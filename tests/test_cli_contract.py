"""The command line's failure contract, over a grammar of argv for every
subcommand but ``selftest``: nothing but SystemExit leaves ``cli.main``,
the exit code is 0, 1 or 2, stdout is one strict JSON envelope or empty,
an envelope's inputs name every flag of its argv but --pretty and
nothing but the options of its subcommand, and without an envelope the last line of stderr names the failure.

The grammar draws poles, signed zeros, a subnormal, 1e300, the caps and
one past them, malformed values, missing required flags and both
``--flag value`` and ``--flag=value`` spellings, each argv from one
seed.  Hypothesis picks the seeds when installed (derandomized, so
every run makes the same calls); otherwise the seeds are 0..299.
"""

import argparse
import contextlib
import io
import json
import random
import re

from atkinpoly import cli

_CALLS = 300

# drawn for one flag value in twenty, in place of the flag's own values
_MALFORMED = ("", "x", "1.5", "1/0", "nan", "inf", "-inf", "1e400", "--pretty")
_EXACT_DEGREES = ("-1", "0", "1", "2", "7", "13", "201", "10000000000")
_FLOATS = (
    "0", "-0", "-0.0", "5e-324", "1e-200", "0.3", "-.5", "-1e-3", "1", "1.0", "0.9999999999999999",
    "720", "1727.9999999999998", "1728", "1e300", "-1e300",
)
_RATIONALS = ("0", "-1", "-2", "1/2", "-1/2", "2/3", "-2/3", "7/12", "5/12", "-1/12", "13/12", "1e300", "-1e-9")
_TOLERANCES = ("0", "-0", "1e-8", "0.05", "1", "-1", "1e300")
_PARAMS = (("--alpha", _RATIONALS), ("--beta", _RATIONALS), ("--c", _RATIONALS))

# subcommand -> (flag, values, required); the caps are 200 for the exact
# degrees (only atkin, one O(n) coefficient recurrence per degree, runs
# at it), 511 for asymptotic, 518 for genfun, 8 for gram and 2398 for
# supersingular
_GRAMMAR = {
    "atkin": (("--n", _EXACT_DEGREES + ("200",), True), ("--scale", ("original", "normalized", "other"), False)),
    "assoc-jacobi": (("--n", _EXACT_DEGREES, True),)
    + tuple((flag, values, True) for flag, values in _PARAMS)
    + (("--variant", ("V", "calV", "v"), False),),
    "rep-check": (
        ("--n", _EXACT_DEGREES, True),
        ("--which", ("rep1", "rep2", "rep3", "rep4"), True),
        ("--rep1-coeff", ("455/3456", "91/384", "0", "-1e300"), False),
    ),
    "explicit-check": (
        ("--n", _EXACT_DEGREES, True),
        ("--form", ("binomial", "hypergeometric", "assoc-v", "assoc-calv", "kz"), False),
    )
    + tuple((flag, values, False) for flag, values in _PARAMS),
    "asymptotic": (
        ("--n", ("-1", "0", "1", "50", "511", "512"), True),
        ("--theta", _FLOATS, True),
        ("--tol", _TOLERANCES, False),
    ),
    "genfun": (
        ("--which", ("fjk", "uy", "catalan", "at-zero", "at-one", "none"), True),
        ("--n", ("-1", "0", "1", "5", "20", "513", "514", "518", "519"), True),
        ("--t", _FLOATS, True),
        ("--x", _FLOATS, False),
    )
    + tuple((flag, values, False) for flag, values in _PARAMS)
    + (("--tol", _TOLERANCES, False),),
    "weight": (("--x", _FLOATS, True),),
    "gram": (("--n", ("-1", "0", "3", "8", "9"), True),),
    "supersingular": (("--pmax", ("-1", "2", "4", "5", "13", "97", "200", "201", "2398", "2399"), True),),
}

_EXTRA = (None,) * 9 + ("--pretty", "--bogus", "--n")
# "atkinpoly: error: ...", "atkinpoly genfun: error: ..." (argparse) or
# "atkinpoly: NonConvergent: ..."
_FAILURE_LINE = re.compile(r"^atkinpoly( [a-z-]+)?: (error|NonConvergent|InternalInconsistency): ")


def _argv(seed):
    """One argv of the grammar, drawn by random.Random(seed).  A required
    flag is left out once in twenty draws, an optional one every other."""
    rng = random.Random(seed)
    command = rng.choice(sorted(_GRAMMAR))
    argv = [command]
    for flag, values, required in _GRAMMAR[command]:
        if rng.random() < (0.95 if required else 0.5):
            value = rng.choice(values if rng.random() < 0.95 else _MALFORMED)
            argv += rng.choice(([flag, value], ["%s=%s" % (flag, value)]))
    extra = rng.choice(_EXTRA)
    return argv if extra is None else argv + [extra]


def _option_dests():
    """Subcommand -> the dests of its options, but --help and --pretty."""
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return {
        name: {action.dest for action in sub._actions if action.option_strings} - {"help", "pretty"}
        for name, sub in subparsers.choices.items()
    }


_OPTION_DESTS = _option_dests()


def _refuse_constant(name):
    raise ValueError("stdout holds the non-standard JSON token %s" % name)


def _check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if out.getvalue():
        envelope = json.loads(out.getvalue(), parse_constant=_refuse_constant)
        assert set(envelope) == {"command", "inputs", "results", "provenance"}, argv
        # every flag given was read: a form refuses the flags it does not read
        flags = {token[2:].split("=")[0].replace("-", "_") for token in argv if token.startswith("--")}
        assert flags - {"pretty"} <= set(envelope["inputs"]), argv
        # and nothing else: no parser bookkeeping reaches an envelope
        assert set(envelope["inputs"]) <= _OPTION_DESTS[envelope["command"]], argv
    else:
        assert code != 0, argv
        lines = err.getvalue().splitlines()
        assert lines and _FAILURE_LINE.match(lines[-1]), (argv, err.getvalue())


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    given = None


if given is None:

    def test_cli_failure_contract():
        for seed in range(_CALLS):
            _check_contract(_argv(seed))

else:
    # a failure shrinks to the smallest failing seed; drawing each flag
    # through hypothesis would cost more than the calls themselves

    @settings(max_examples=_CALLS, derandomize=True, deadline=None, database=None)
    @given(st.integers(min_value=0))
    def test_cli_failure_contract(seed):
        _check_contract(_argv(seed))
