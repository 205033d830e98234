"""The output check must count bad output as a failed operation.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
(about 10 s; one validation suite pass).
"""

import copy
import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    WORKLOADS,
    PassResult,
    check_report,
    execute_pass,
    judge,
    load_reference,
)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def judged(name, report, first_digest=None, digest="d"):
    result = PassResult(1.0, report, digest)
    judge(result, WORKLOADS[name], 0, first_digest)
    return result


def test_references_pass_their_own_check():
    for name in WORKLOADS:
        assert check_report(name, 0, load_reference(name)["report"]) == [], name


def test_validate_with_corrupted_cutoffs_is_a_failed_operation():
    wl = WORKLOADS["validate"]
    result = execute_pass(wl, {"seed": 0, "cutoff_scale": 1.01}, OUT)
    judge(result, wl, 0, None)
    assert result.report is not None and result.failed
    assert any("partition_of_unity" in p for p in result.problems)


def test_nonuniform_gap_off_by_1e8_is_a_failed_operation():
    report = copy.deepcopy(load_reference("nonuniform-ch")["report"])
    row = next(r for r in report["rows"] if r["n"] == 6 and r["t"] == 0.05)
    row["D_n"] *= 1.0 + 1e-8
    result = judged("nonuniform-ch", report)
    assert result.failed
    assert any("D_n" in p for p in result.problems)


def test_changed_verdict_is_a_failed_operation():
    report = copy.deepcopy(load_reference("nonuniform-ch")["report"])
    report["checks"]["band_n5_t0.1"]["passed"] = True  # an expected red cell
    assert judged("nonuniform-ch", report).failed


def test_taylor_slope_invariant_holds_at_every_seed():
    report = copy.deepcopy(load_reference("taylor-novikov")["report"])
    report["checks"]["slope_smooth"]["passed"] = False
    result = PassResult(1.0, report, "d")
    judge(result, WORKLOADS["taylor-novikov"], 7, None)
    assert result.failed


def test_rerun_that_is_not_bit_identical_is_a_failed_operation():
    report = load_reference("validate")["report"]
    assert not judged("validate", report, first_digest="d").failed
    assert judged("validate", report, first_digest="other").failed


def test_runner_exception_is_a_failed_operation_not_a_crash():
    def broken(inputs):
        raise ValueError("boom")

    wl = dataclasses.replace(WORKLOADS["validate"], run=broken)
    result = execute_pass(wl, {"seed": 0}, OUT)
    judge(result, wl, 0, None)
    assert result.failed and "boom" in result.problems[0]
