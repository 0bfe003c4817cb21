"""One set-up, as a CLI run pays it: start Python, import qeplidar (with
numpy and scipy), build the workload's scenario, then print "ready".

Usage: python3 benchmark/setup_probe.py <workload> <seed>
run.py times a few of these from spawn to "ready" and reports the median
as setup_s.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports qeplidar, numpy, scipy)

workloads.build_scenario(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]),
                         ROOT)
print("ready", flush=True)
