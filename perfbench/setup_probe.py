"""Set-up probe: a fresh interpreter imports ``repro`` and looks a solver up.

This is the start-up every ``repro solve`` pays.  The parent times the span
from spawning this script until its one output line arrives; the line
carries the time ``import repro`` alone took.

Usage: python perfbench/setup_probe.py ALGORITHM
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    import repro

    imported = time.perf_counter()
    repro.solvers.get_solver(sys.argv[1])
    print('{"import_s": %r}' % (imported - started), flush=True)
