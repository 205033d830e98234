"""The three benchmark workloads: inputs drawn from a seed, one pass through
the public besovlab runners, and the check every pass's output must meet.

A pass is one operation.  It fails when the runner raises or when
check_report finds a problem; it never crashes the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from tempfile import TemporaryDirectory
from typing import Callable

import numpy as np

from besovlab import harness
from besovlab.dynamics import Model
from besovlab.harness import ExperimentConfig

HALF_LENGTH = 32.0 * math.pi

# ROADMAP tolerance for values that must survive a refactor unchanged.
REFERENCE_RTOL = 1e-10
H1_DRIFT_TOL = 1e-6
GAP_AT_ZERO_RTOL = 1e-12

# Validation values below this are rounding-level defects of O(1) quantities
# (round-trip and Parseval residuals and the like); they are compared on that
# unit scale, i.e. absolutely at REFERENCE_RTOL.
ROUNDING_LEVEL = 1e-6

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT = os.path.join(HERE, "out")  # results, spans, emit_outputs' temp dirs


# --- inputs -----------------------------------------------------------------


def nonuniform_inputs(seed: int) -> dict:
    """Seed 0: the README times; other seeds draw the two intermediate times
    from the 1e-3 lattice in (0, 0.1).  The final time stays 0.1 so the step
    count, and hence the work per pass, stays the same.  t = 0 is sampled so
    the report carries the D_n(0) row that check_report needs."""
    if seed == 0:
        mids = (0.02, 0.05)
    else:
        rng = np.random.default_rng(seed)
        picks = sorted(rng.choice(np.arange(1, 100), size=2, replace=False))
        mids = tuple(int(k) / 1000.0 for k in picks)
    return {"model": "ch", "n_values": [5, 6, 7], "t_values": [0.0, *mids, 0.1]}


def taylor_inputs(seed: int) -> dict:
    """Seed 0: the README defaults (packet n = 6).  Other seeds draw the packet
    n from {5, 6, 7}; the step count is fixed by dt_max = t_min/4 either way."""
    packet_n = 6 if seed == 0 else int(np.random.default_rng(seed).choice([5, 6, 7]))
    return {
        "model": "novikov",
        "t_min": 1e-3,
        "t_max": 1e-1,
        "points": 8,
        "packet_n": packet_n,
        "grid_points": 2**15,
    }


def validate_inputs(seed: int) -> dict:
    return {"seed": seed, "cutoff_scale": 1.0}


def run_nonuniform_pass(inputs: dict):
    return harness.run_nonuniform(
        ExperimentConfig(
            model=Model(inputs["model"]),
            n_values=tuple(inputs["n_values"]),
            t_values=tuple(inputs["t_values"]),
        )
    )


def run_taylor_pass(inputs: dict):
    return harness.run_taylor_check(
        ExperimentConfig(model=Model(inputs["model"])),
        t_min=inputs["t_min"],
        t_max=inputs["t_max"],
        points=inputs["points"],
        packet_n=inputs["packet_n"],
    )


def run_validate_pass(inputs: dict):
    return harness.run_validation_suite(inputs["seed"], cutoff_scale=inputs["cutoff_scale"])


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    run: Callable[[dict], object]
    # Grid the workload is set up on (points, half length) and whether its
    # set-up builds the bump; see setup_child.py.
    setup_grid: Callable[[dict], tuple]
    setup_bump: bool


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "nonuniform-ch",
            nonuniform_inputs,
            run_nonuniform_pass,
            lambda inp: (
                ExperimentConfig(n_values=tuple(inp["n_values"])).make_grid().num_points,
                HALF_LENGTH,
            ),
            True,
        ),
        Workload(
            "taylor-novikov",
            taylor_inputs,
            run_taylor_pass,
            lambda inp: (inp["grid_points"], HALF_LENGTH),
            True,
        ),
        Workload(
            "validate",
            validate_inputs,
            run_validate_pass,
            lambda inp: (2**10, 16.0 * math.pi),
            False,
        ),
    )
}


# --- one pass ---------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    report: dict | None = None
    digest: str | None = None
    emit_bytes: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float | None = None
    cpu_s: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def execute_pass(wl: Workload, inputs: dict, work_dir: str) -> PassResult:
    """Runner call plus emit_outputs into a temporary directory, as the CLI
    does; only that is timed.  Exceptions become a failed pass."""
    os.makedirs(work_dir, exist_ok=True)
    start = time.perf_counter()
    try:
        with TemporaryDirectory(dir=work_dir) as out:
            report = wl.run(inputs)
            written = harness.emit_outputs(report, out)
            wall = time.perf_counter() - start
            digest = hashlib.sha256()
            nbytes = 0
            for path in sorted(written):
                with open(path, "rb") as fh:
                    body = fh.read()
                digest.update(os.path.basename(path).encode() + b"\0" + body)
                nbytes += len(body)
    except Exception as err:  # a failing pass is counted, never fatal
        wall = time.perf_counter() - start
        text = "".join(traceback.format_exception_only(type(err), err)).strip()
        return PassResult(wall, problems=[f"runner raised {text}"])
    return PassResult(wall, report.to_dict(), digest.hexdigest(), nbytes)


def judge(result: PassResult, wl: Workload, seed: int, first_digest) -> None:
    """Fill result.problems from the output check and bit-identity with the
    run's first pass (criterion 10)."""
    if result.report is None:
        return
    result.problems.extend(check_report(wl.name, seed, result.report))
    if first_digest is not None and result.digest != first_digest:
        result.problems.append("emitted files differ from the run's first pass")


# --- output check -----------------------------------------------------------


def load_reference(name: str) -> dict:
    """{"report": seed-0 report} plus, for the Taylor workload, "datum_b321":
    the B^{3/2}_{2,1} norm of each initial datum (see compare_reference)."""
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def check_report(name: str, seed: int, report: dict) -> list:
    """Problems with one pass's report; empty means the pass is correct.

    Every seed: the seed-independent invariants.  Seed 0: also agreement with
    the reference recorded from the seed commit (values to REFERENCE_RTOL,
    verdicts identical, so the expected red band cells stay red).
    """
    problems = INVARIANTS[name](report)
    if seed == 0:
        problems += compare_reference(name, report, load_reference(name))
    return problems


def _nonuniform_invariants(report: dict) -> list:
    problems = []
    for n, entry in report["per_n"].items():
        if "error" in entry:
            problems.append(f"member n={n} failed: {entry['error']}")
        elif not entry["h1_drift"] < H1_DRIFT_TOL:
            problems.append(f"n={n}: H1 drift {entry['h1_drift']:.3e} >= {H1_DRIFT_TOL}")
    zero_rows = [row for row in report["rows"] if row["t"] == 0.0]
    if len(zero_rows) != len(report["per_n"]):
        problems.append("missing D_n(0) rows")
    for row in zero_rows:
        if abs(row["D_n"] - row["g_norm"]) > GAP_AT_ZERO_RTOL * row["g_norm"]:
            problems.append(f"n={row['n']}: D_n(0)={row['D_n']!r} != ||g||={row['g_norm']!r}")
    decay = report["checks"].get("perturbation_decay_geometric")
    if decay is None or not decay["passed"]:
        problems.append(f"perturbation decay not geometric: {decay}")
    return problems


def _taylor_invariants(report: dict) -> list:
    slopes = {k: v for k, v in report["checks"].items() if k.startswith("slope_")}
    if len(slopes) != 2:
        return [f"expected two slope checks, got {sorted(slopes)}"]
    return [f"{k} = {v['value']!r} outside 2 +- 0.1" for k, v in slopes.items() if not v["passed"]]


def _validate_invariants(report: dict) -> list:
    return [] if report["passed"] else [
        f"validation check {k} failed: value {v['value']!r}, threshold {v['threshold']}"
        for k, v in report["checks"].items()
        if not v["passed"]
    ]


INVARIANTS = {
    "nonuniform-ch": _nonuniform_invariants,
    "taylor-novikov": _taylor_invariants,
    "validate": _validate_invariants,
}

# Values compared against the reference.  The other numbers in a report
# repeat these (check values) or are rounding-level drifts.
#
# Taylor remainders u(t) - u0 - t rhs(u0), and the slope, implied constant and
# first-order ratio fitted from them, cancel O(1) operands: the packet
# remainder at t = 1e-3 is 8e-15, at the rounding floor.  A relative
# comparison there would demand bit-identity, so remainders are compared at
# REFERENCE_RTOL times the datum's norm, and the fitted values by verdict
# (and by the every-seed slope invariant) only.
ROW_VALUES = ("D_n", "ratio", "band_ratio", "g_norm")
ENTRY_VALUES = (
    "perturbation_norm",
    "snap_error",
    "product_b321",
    "product_b32inf",
    "mixed_cross",
    "transport_cross",
    "nonlocal_diff",
    "correction_total",
    "dominance_factor",
    "remainder_bound",
)


def _close(new, ref, scale=None) -> bool:
    if isinstance(ref, dict):
        return isinstance(new, dict) and new.keys() == ref.keys() and all(
            _close(new[k], ref[k], scale) for k in ref
        )
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return new == ref
    if scale is None:
        scale = abs(ref)
    return isinstance(new, (int, float)) and abs(new - ref) <= REFERENCE_RTOL * scale


def compare_reference(name: str, report: dict, reference: dict) -> list:
    problems = []
    ref = reference["report"]
    datum_scale = reference.get("datum_b321", {})

    def row_key(row):
        return (row.get("n"), row.get("datum"), row["t"])

    rows = {row_key(r): r for r in report["rows"]}
    if rows.keys() != {row_key(r) for r in ref["rows"]}:
        problems.append("row set differs from the reference")
    for ref_row in ref["rows"]:
        row = rows.get(row_key(ref_row))
        if row is None:
            continue
        if row["verdict"] != ref_row["verdict"]:
            problems.append(f"verdict of row {row_key(ref_row)} changed")
        for key in ROW_VALUES:
            if key in ref_row and not _close(row.get(key), ref_row[key]):
                problems.append(
                    f"row {row_key(ref_row)} {key}: {row.get(key)!r} vs reference {ref_row[key]!r}"
                )
        if "remainder" in ref_row:
            scale = datum_scale[ref_row["datum"]]
            if not _close(row.get("remainder"), ref_row["remainder"], scale):
                problems.append(
                    f"row {row_key(ref_row)} remainder: {row.get('remainder')!r} "
                    f"vs reference {ref_row['remainder']!r} (datum norm {scale!r})"
                )
    for label, ref_entry in ref["per_n"].items():
        entry = report["per_n"].get(label, {})
        for key in ENTRY_VALUES:
            if key in ref_entry and not _close(entry.get(key), ref_entry[key]):
                problems.append(
                    f"{label} {key}: {entry.get(key)!r} vs reference {ref_entry[key]!r}"
                )
    if report["checks"].keys() != ref["checks"].keys():
        problems.append("check set differs from the reference")
    for key, ref_check in ref["checks"].items():
        check = report["checks"].get(key)
        if check is None:
            continue
        if check["passed"] != ref_check["passed"]:
            problems.append(f"verdict of check {key} changed")
        # Validation values are the product of the suite; the experiments'
        # check values repeat the row and entry values compared above.
        if name == "validate" and not _close(
            check["value"], ref_check["value"], _validation_scale(ref_check["value"])
        ):
            problems.append(f"check {key}: {check['value']!r} vs reference {ref_check['value']!r}")
    if report["passed"] != ref["passed"]:
        problems.append("overall verdict changed")
    return problems


def _validation_scale(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return abs(value) if abs(value) >= ROUNDING_LEVEL else 1.0
    if isinstance(value, dict):
        return max(_validation_scale(v) for v in value.values())
    return None
