#!/usr/bin/env python3
"""besovlab benchmark: one workload, measured from outside the program.

Usage, from the repository root:

    python3 perfbench/run.py --workload {nonuniform-ch,taylor-novikov,validate}
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client; each pass starts when the
previous one has ended, and runs in a fresh interpreter as a CLI invocation
does (see one_pass.py), so no two processes of the benchmark ever run at
once.  A pass is one operation: the runner call plus emit_outputs into a
temporary directory, followed (untimed) by the output check in
workloads.check_report.

--trace 0 measures the end-to-end metrics: wall_s (median pass time, passes
repeated until S seconds have elapsed), setup_s (median over fresh
interpreters of import plus grid/cutoff/bump set-up) and peak_rss_mb (median
peak resident memory of the pass processes).  --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics, the tracing overhead and
the fixed-size layer probes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with provenance, per-pass
samples and any problems found, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("nonuniform-ch", "taylor-novikov", "validate")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
RUN_DEADLINE_S = 170  # a run must end within 180 s
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="besovlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# --- provenance -------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _last_level_cache() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        size = _read(os.path.join(base, index, "size"))
        if level and size and (best is None or int(level) >= best[0]):
            best = (int(level), f"L{level.strip()} {size.strip()}")
    return best[1] if best else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "besovlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # a plain source checkout; src_sha256 identifies the code
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(args, inputs: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python_threads": threading.active_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "load_model": "closed loop, 1 client, each pass in a fresh interpreter, one at a time",
    }


# --- measurement ------------------------------------------------------------


def setup_once(wl, inputs: dict) -> float:
    points, half_length = wl.setup_grid(inputs)
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "setup_child.py"),
            SRC,
            str(points),
            repr(half_length),
            "1" if wl.setup_bump else "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def upper_percentile(samples: list):
    """Highest whole percentile with at least ten samples above it (nearest
    rank), or None when there are too few samples for one."""
    n = len(samples)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if pct <= 0:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return pct, ordered[rank - 1]


def run_pass(args, trace: bool, deadline: float):
    """One pass in a fresh interpreter (see one_pass.py), judged here.
    A crash, a timeout or a failed check is a failed pass."""
    from workloads import PassResult

    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), args.workload, str(args.seed),
           "1" if trace else "0"]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return PassResult(time.perf_counter() - start, problems=["pass timed out"]), {}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return PassResult(time.perf_counter() - start,
                          problems=[f"pass process exited {done.returncode}: {tail}"]), {}
    record = json.loads(lines[-1])
    result = PassResult(
        record["wall_s"], record["report"], record["digest"], record["emit_bytes"],
        record["problems"], record["peak_rss_mb"], record["cpu_s"],
    )
    return result, record


def timed_run(wl, inputs: dict, args, deadline: float):
    from workloads import judge

    setups = [setup_once(wl, inputs) for _ in range(SETUP_REPEATS)]
    passes = []
    first_digest = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        result, _ = run_pass(args, False, deadline)
        judge(result, wl, args.seed, first_digest)
        first_digest = first_digest or result.digest
        passes.append(result)
    walls = [r.wall_s for r in passes]
    peaks = [r.peak_rss_mb for r in passes if r.peak_rss_mb is not None]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(peaks) if peaks else 0.0, "MB"),
    }
    pct = upper_percentile(walls)
    summary = [
        f"wall_s: median {metrics['wall_s'][0]:.4f} s over {len(walls)} passes; "
        + (f"p{pct[0]} {pct[1]:.4f} s" if pct
           else f"no percentile with >= 10 samples above it (n={len(walls)})"),
        f"setup_s: median {metrics['setup_s'][0]:.4f} s over {len(setups)} fresh interpreters",
        f"peak_rss_mb: median {metrics['peak_rss_mb'][0]:.2f} MB over {len(peaks)} pass processes",
    ]
    record = {
        "wall_s_samples": walls,
        "wall_s_upper_percentile": pct,
        "setup_s_samples": setups,
        "peak_rss_mb_samples": peaks,
    }
    return metrics, passes, summary, record


def traced_run(wl, inputs: dict, args, deadline: float):
    from tracing import layer_probes
    from workloads import judge

    untraced, _ = run_pass(args, False, deadline)
    judge(untraced, wl, args.seed, None)
    traced, record = run_pass(args, True, deadline)
    judge(traced, wl, args.seed, untraced.digest)
    if "layers" not in record or untraced.cpu_s is None:
        return {}, [untraced, traced], ["trace: a pass failed; no layer metrics"], {}

    metrics = {k: tuple(v) for k, v in record["layers"].items()}
    member_errors = sum(
        1 for entry in traced.report["per_n"].values() if isinstance(entry, dict) and "error" in entry
    )
    metrics.update(
        {
            "harness.emit_bytes": (traced.emit_bytes, "count"),
            "harness.cpu_s": (untraced.cpu_s, "s"),
            "harness.member_errors": (member_errors, "count"),
            "trace.pass_wall_s": (record["traced_wall_s"], "s"),
            "trace.untraced_wall_s": (untraced.wall_s, "s"),
            "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
        }
    )
    metrics.update(layer_probes())
    summary = [
        f"trace: {metrics['trace.spans'][0]} spans; traced pass {traced.wall_s:.4f} s vs "
        f"untraced {untraced.wall_s:.4f} s; self times cover "
        f"{metrics['trace.self_coverage'][0]:.4f} of the traced pass; spans in {record['spans_path']}"
    ]
    return metrics, [untraced, traced], summary, {"untraced_wall_s": untraced.wall_s}


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "besovlab", "__init__.py")):
        print(f"error: no besovlab package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import besovlab

    if os.path.dirname(os.path.abspath(besovlab.__file__)) != os.path.join(SRC, "besovlab"):
        print(f"error: imported besovlab from {besovlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import OUT, WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    os.makedirs(OUT, exist_ok=True)
    prov = provenance(args, inputs)
    run = traced_run if args.trace else timed_run
    metrics, passes, summary, record = run(wl, inputs, args, started + RUN_DEADLINE_S)

    failed = sum(r.failed for r in passes)
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    problems = [p for r in passes for p in r.problems]
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "provenance": prov, "problems": problems, **record}, fh, indent=1)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in summary:
        print(line)
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print(f"operations: {failed} failed / {len(passes)} attempted; full record in {path}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
