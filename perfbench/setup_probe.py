"""Set-up time in a fresh process: import drsplit, parse the problem file
and build the sets, up to the first step.

Usage: python3 perfbench/setup_probe.py SRC_DIR PROBLEM_FILE
Prints the elapsed seconds, then the time of the benchmark's calibration
loop run right after, in this process.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import drsplit  # noqa: E402
from drsplit import cli  # noqa: E402

spec = cli.load_problem(sys.argv[2])
if spec.lift_sets is not None:
    drsplit.lift(spec.lift_sets)
elapsed = time.perf_counter() - t0

from clock import calibration_s  # noqa: E402

print(elapsed, calibration_s())
