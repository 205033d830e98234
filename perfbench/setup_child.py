"""Set-up time of one workload, measured inside a fresh interpreter.

Usage: python3 setup_child.py SRC_DIR NUM_POINTS HALF_LENGTH BUMP(0|1)

Times `import besovlab` plus building the workload's Grid, its
Littlewood-Paley cutoffs and, for the packet workloads, the bump; prints the
elapsed seconds.  Only sys and time are imported before the clock starts.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import besovlab  # noqa: E402

grid = besovlab.Grid(int(sys.argv[2]), float(sys.argv[3]))
besovlab.build_cutoffs(grid)
if sys.argv[4] == "1":
    besovlab.build_bump(grid)
print(repr(time.perf_counter() - start))
