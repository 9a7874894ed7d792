"""One fresh process's set-up, for timing it: prints ``ready`` when set up.

    python3 perfbench/setup_probe.py WORKLOAD INPUT_DIR SEED

``run.py`` spawns this several times and reports the median time from spawn
to ``ready`` as ``setup_s``: interpreter start, imports, and the workload's
set-up on inputs ``run.py`` already wrote.
"""

import sys

import run

run.import_package()
import workloads  # noqa: E402  (needs the package path set by import_package)

workload, work_dir, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
workloads.WORKLOADS[workload](work_dir, seed).setup()
print("ready", flush=True)
