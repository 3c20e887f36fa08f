"""One set-up sample: a fresh interpreter imports ``repro`` and
elaborates the workload's first input (and compiles it on the compiled
engine), then exits.  ``run.py`` times the whole process from outside.

The reference loop runs right before the import and right after the
set-up, in this process, and the probe prints the two loop rates and
the seconds the loops took: ``run.py`` takes the loops' time out and
scales the rest to reference seconds with rates sampled on the same
core, moments apart.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

from workloads import make_workload, reference_rate

if __name__ == "__main__":
    started = time.perf_counter()
    before = reference_rate()
    loops = time.perf_counter() - started
    import repro  # noqa: F401  (part of what is timed)
    make_workload(sys.argv[1], int(sys.argv[2])).setup()
    started = time.perf_counter()
    after = reference_rate()
    loops += time.perf_counter() - started
    print(before, after, loops)
