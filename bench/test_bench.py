"""Tests of the benchmark itself (not of atkinpoly).

    python3 -m pytest -q bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from worker import run_op

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import atkinpoly  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90, 10)
    assert run.tail_percentile([float(v) for v in range(1000)]) == (99, 989.0, 10)


def test_tail_percentile_for_one_round_of_each_workload():
    # the sample count is the operation count of one round
    assert run.tail_percentile(range(50))[0] == 80
    assert run.tail_percentile(range(23))[0] == 56
    assert run.tail_percentile(range(30))[0] == 66


def test_tail_percentile_needs_twenty_samples():
    assert run.tail_percentile(range(19)) is None
    assert run.tail_percentile(range(20))[0] == 50


# ---------------------------------------------------------------------------
# self-time arithmetic on synthetic spans


def _span(name, start, end, parent, failed=False):
    return [name, start, end, parent, 0, failed]


def test_self_time_subtracts_union_of_children():
    trace = [
        _span("bench.round", 0.0, 10.0, None),
        _span("atkin.atkin", 1.0, 4.0, 0),
        _span("ratpoly.poly_eval", 3.0, 6.0, 0),  # overlaps its sibling
        _span("exact.gen_binom", 2.0, 3.0, 1),
    ]
    assert spans.self_times(trace) == [5.0, 2.0, 3.0, 1.0]


def test_child_outside_parent_is_clipped():
    trace = [_span("bench.round", 0.0, 10.0, None), _span("atkin.atkin", 8.0, 12.0, 0)]
    assert spans.self_times(trace) == [8.0, 4.0]
    summary = spans.summarize(trace)
    # the 2 s the child spent outside its parent break the sanity identity
    assert sum(s[1] for s in summary["layers"].values()) - summary["root_s"] == 2.0


def test_summary_adds_up_to_the_roots():
    trace = [
        _span("bench.round", 0.0, 10.0, None),
        _span("bench.op", 0.5, 9.5, 0),
        _span("atkin.atkin", 1.0, 4.0, 1),
        _span("atkin.atkin", 5.0, 6.0, 1, failed=True),
        _span("ratpoly.affine_substitute", 1.5, 2.0, 2),
    ]
    summary = spans.summarize(trace)
    assert summary["functions"]["atkin.atkin"] == [2, 3.5, 1]
    assert summary["layers"]["atkin"] == [2, 3.5, 1]
    assert summary["layers"]["bench"] == [2, 6.0, 0]
    assert sum(s[1] for s in summary["layers"].values()) == summary["root_s"] == 10.0


def test_traced_cli_invocation_nests_package_calls():
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "cli", "atkin", "--n", "3", "--scale", "normalized"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    result = json.loads(out)
    assert result["exit"] == 0
    workloads.check_cli(["atkin", "--n", "3", "--scale", "normalized"], 0, result["exit"], result["stdout"])
    trace = result["trace"]
    assert trace["functions"]["cli.main"][0] == 1
    assert trace["functions"]["atkin.atkin_normalized"][0] == 1
    # the rescale check inside atkin_normalized calls these through the package
    assert trace["functions"]["ratpoly.affine_substitute"][0] == 1
    assert trace["functions"]["atkin.atkin"][0] >= 1
    total = sum(s[1] for s in trace["layers"].values())
    assert total == pytest.approx(trace["root_s"], rel=1e-9)


# ---------------------------------------------------------------------------
# output checks


def _op(workload, label_prefix):
    ops = workloads.build_ops(workload, 0, atkinpoly, {"weight.quad_nodes": 0, "supersingular.primes": 0,
                                                       "supersingular.fp2_elements": 0})
    return next(op for op in ops if op.label.startswith(label_prefix))


def test_correct_output_passes():
    assert run_op(_op("exact", "kz_explicit"))[2] == "ok"


def test_changed_coefficient_is_counted_as_failed():
    op = _op("exact", "kz_explicit")

    def corrupted():
        explicit, recurrence = op.call()
        return explicit[:1] + (explicit[1] + 1,) + explicit[2:], recurrence

    record = run_op(op._replace(call=corrupted))
    assert record[2] == "failed"
    assert "differs from the recurrence" in record[3]


def test_changed_endpoint_value_is_counted_as_failed():
    op = _op("exact", "atkin(")
    coeffs, at_1728 = op.call()
    assert run_op(op._replace(call=lambda: (coeffs, at_1728 + 1)))[2] == "failed"
    assert run_op(op._replace(call=lambda: (coeffs[:-1] + (2,), at_1728)))[2] == "failed"


def test_residual_over_tolerance_is_counted_as_failed():
    op = _op("numeric", "catalan_gen_check")
    lhs, rhs = op.call()[0]
    assert run_op(op)[2] == "ok"
    assert run_op(op._replace(call=lambda: [(lhs, rhs + 10 * workloads.GENFUN_TOL)]))[2] == "failed"


def test_exception_is_counted_and_known_limit_is_separate():
    def boom():
        raise OverflowError("too big")

    op = workloads.Op("synthetic", boom, lambda res: None)
    assert run_op(op)[2:4] == ["failed", "OverflowError: too big"]
    assert run_op(op._replace(past_limit=True))[2] == "known"


def test_cli_envelope_checks():
    argv = ["rep-check", "--n", "1", "--which", "rep1", "--rep1-coeff", "91/384"]
    env = {"command": "rep-check", "inputs": {}, "results": {"matched": False}, "provenance": {}}
    workloads.check_cli(argv, 2, 2, json.dumps(env))
    with pytest.raises(workloads.Mismatch):
        workloads.check_cli(argv, 2, 0, json.dumps(env))
    with pytest.raises(workloads.Mismatch):
        workloads.check_cli(argv, 2, 2, json.dumps(dict(env, results={"matched": True})))
    with pytest.raises(workloads.Mismatch):
        workloads.check_cli(argv, 2, 2, json.dumps({k: v for k, v in env.items() if k != "provenance"}))


def test_independent_routes_agree_with_known_values():
    assert workloads.atkin_mod_p_recurrence(2, 101) == (269280 % 101, -1640 % 101, 1)
    assert workloads.weighted_moment(1) * 1728 == 720
    assert [workloads.ss_degree(p) for p in (5, 7, 11, 13)] == [1, 1, 2, 1]


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_give_same_operation_count(workload):
    counts = {len(workloads.inputs(workload, seed)) for seed in (0, 1, 7, 12345)}
    assert len(counts) == 1
    # enough operations per round for a tail percentile with ten beyond it
    assert run.tail_percentile(range(counts.pop())) is not None
    assert workloads.inputs(workload, 3) == workloads.inputs(workload, 3)
    assert workloads.inputs(workload, 3) != workloads.inputs(workload, 4)


def test_numeric_known_failures_are_the_overflow_degrees():
    specs = workloads.inputs("numeric", 5)
    past = [s for s in specs if s[0] == "asymptotic" and s[1] >= workloads.ASYMPTOTIC_OVERFLOW_DEGREE]
    assert len(past) == 3


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints


def test_benchmark_json_names_match_output():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_metrics()
