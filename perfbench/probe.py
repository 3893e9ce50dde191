"""Set-up probe: import the package, build one workload's inputs, say "ready".

``run.py`` starts this in a fresh interpreter and times process start to the
"ready" line, which is the set-up a user pays before the first call.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

import run

run.activate()

import workloads  # noqa: E402  (needs the checkout's package on sys.path)

workloads.build(sys.argv[1], int(sys.argv[2]), str(run.WORK_DIR))
print("ready", flush=True)
