"""Run one benchmark pass in this fresh interpreter and print its record.

Usage: python3 perfbench/one_pass.py WORKLOAD SEED TRACE(0|1)

run.py starts one of these per pass, one at a time, so every pass starts from
the state a CLI invocation starts from.  That matters: glibc returns freed
arrays of the solver's size to the OS and faults them in again on the next
allocation, and that cost depends on what the process allocated before.  In one
long-lived process a pass's time would depend on the passes and benchmark
bookkeeping before it: on a 2-core Xeon VM, one earlier 16 MB allocation
halved the time of a Novikov evolve at N = 2^15.

The last line of standard output is one JSON object: wall_s, cpu_s,
peak_rss_mb, digest, emit_bytes, report, problems and, with TRACE=1, the
per-layer metrics (spans are written to perfbench/out/).
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import OUT, WORKLOADS, execute_pass  # noqa: E402


def main(argv) -> None:
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        run = execute_pass if tracer is None else tracer.wrap("pass", execute_pass)
        result = run(wl, inputs, OUT)
    finally:
        if tracer is not None:
            tracer.uninstall()
    outer_wall = time.perf_counter() - start
    record = {
        "wall_s": result.wall_s,
        "cpu_s": time.process_time() - cpu_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": result.digest,
        "emit_bytes": result.emit_bytes,
        "report": result.report,
        "problems": result.problems,
    }
    if tracer is not None:
        from tracing import layer_metrics

        record["layers"] = layer_metrics(tracer.spans, outer_wall)
        record["traced_wall_s"] = outer_wall
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
        t0 = tracer.spans[0][1]
        with open(spans_path, "w") as fh:
            json.dump([[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in tracer.spans], fh)
        record["spans_path"] = spans_path
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
