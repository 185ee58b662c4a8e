"""Acceptance gate: every external criterion, one visible line each.

Each test runs one criterion from the selftest module, prints a PASS/FAIL
line with the measured detail, and enforces the stated time budget where
one exists.
"""

import json

from atkinpoly import selftest
from atkinpoly.cli import main


def _report(capsys, result, budget=None):
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(
            "[criterion %d] %s (%.2fs): %s"
            % (result.number, status, result.elapsed, result.detail)
        )
    assert result.passed, result.detail
    if budget is not None:
        assert result.elapsed < budget, "budget %ss exceeded: %.2fs" % (
            budget,
            result.elapsed,
        )


def test_criterion_1_printed_tables(capsys):
    _report(capsys, selftest.criterion_1(), budget=1.0)


def test_criterion_2_exact_representations(capsys):
    _report(capsys, selftest.criterion_2(), budget=30.0)


def test_criterion_3_first_representation_scalar(capsys):
    _report(capsys, selftest.criterion_3())


def test_criterion_4_endpoint_series(capsys):
    _report(capsys, selftest.criterion_4())


def test_criterion_5_generating_functions(capsys):
    _report(capsys, selftest.criterion_5(), budget=10.0)


def test_criterion_6_asymptotics(capsys):
    _report(capsys, selftest.criterion_6())


def test_criterion_7_weight_and_gram(capsys):
    _report(capsys, selftest.criterion_7(), budget=60.0)


def test_criterion_8_supersingular(capsys):
    _report(capsys, selftest.criterion_8(), budget=300.0)


def test_a_failing_criterion_reports_its_first_six_messages(capsys, monkeypatch):
    @selftest._criterion
    def criterion_9(check):
        for k in range(7):
            check(k < 0, "check %d failed" % k)
        return "not the detail of a failure"

    result = criterion_9()
    assert (result.number, result.passed) == (9, False)
    assert result.detail == "; ".join("check %d failed" % k for k in range(6))
    monkeypatch.setattr(selftest, "_CRITERIA", (selftest.criterion_1, criterion_9))
    assert main(["selftest"]) == 2
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["all_passed"] is False
    assert [(r["criterion"], r["passed"]) for r in results["criteria"]] == [(1, True), (9, False)]
    assert results["criteria"][1]["detail"] == result.detail
