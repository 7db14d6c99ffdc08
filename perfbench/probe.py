"""Set-up time of one workload, measured inside a fresh process.

    python3 perfbench/probe.py <workload> <seed>

Prints the seconds from before ``import anamac`` until the workload's chip
pool is initialised (fixed-pattern draws) and, for HAR, its model is built.
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
workload.setup()
print(repr(time.perf_counter() - start))
