"""Record the seed-0 reference reports that the benchmark's output check
compares against.

Usage, from the repository root: python3 perfbench/record_reference.py [NAME ...]

Run this only on the commit whose outputs define correctness; the committed
files were recorded on the seed commit of the benchmark.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from besovlab import BesovIndex, Grid, besov_norm, build_bump, build_cutoffs, make_packets  # noqa: E402
from besovlab.harness import smooth_profile  # noqa: E402
from workloads import HALF_LENGTH, REFERENCE_DIR, WORKLOADS  # noqa: E402


def taylor_datum_norms(inputs: dict) -> dict:
    """B^{3/2}_{2,1} norms of the two data run_taylor_check evolves."""
    grid = Grid(inputs["grid_points"], HALF_LENGTH)
    cutoffs = build_cutoffs(grid)
    fam = make_packets(build_bump(grid), inputs["packet_n"])
    data = {
        "smooth": smooth_profile(grid),
        f"packet_pair_n{inputs['packet_n']}": fam.packet + fam.bump_fast,
    }
    return {label: besov_norm(u, BesovIndex(1.5, 2, 1), cutoffs) for label, u in data.items()}


def main(names) -> None:
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        inputs = wl.inputs(0)
        reference = {"report": wl.run(inputs).to_dict()}
        if name == "taylor-novikov":
            reference["datum_b321"] = taylor_datum_norms(inputs)
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
