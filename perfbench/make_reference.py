"""Store the outputs the current code gives, as the reference later runs must match.

    python3 perfbench/make_reference.py --workload train --seeds 0 --ops 120

Runs the workload's first ``--ops`` operations untimed for each seed, checks
them, and writes their outputs to ``perfbench/reference/WORKLOAD.json``
(other seeds already stored are kept). Regenerate only from a commit whose
outputs are known good: a run compares against these values exactly, or
within the tolerances in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "ingest"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)
    run.import_package()
    import workloads

    path = os.path.join(run.REFERENCE_DIR, f"{args.workload}.json")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    for seed in args.seeds:
        work_dir = tempfile.mkdtemp(prefix=f"ref-{args.workload}-", dir=run.WORK_DIR)
        try:
            w = workloads.WORKLOADS[args.workload](work_dir, seed)
            w.write_inputs()
            w.setup()
            outputs = []
            for i in range(args.ops):
                w.prepare(i)
                _, output = w.op(i)
                output = w.collect(output)
                problems = w.check(i, output)
                if problems:
                    raise SystemExit(f"seed {seed} op {i} fails its checks: {problems}")
                outputs.append({k: output[k] for k in w.reference_keys})
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        stored["seeds"][str(seed)] = outputs
        print(f"{args.workload} seed {seed}: {len(outputs)} operations", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
