"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads train generate ingest --seeds 1 2 3 4 5 6 7 8 9 10

Runs ``run.py`` once per workload and seed, one run at a time, with
BENCHMARK.json's ``run_seconds``. For each metric it prints the median and
the quartile spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound. A spread
above a third of its bound is flagged: the metric is then too noisy for the
bound to tell a regression from noise. Every run's JSON line is appended to
``perfbench/results/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["train", "generate", "ingest"])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    log = os.path.join(BENCH_DIR, "results", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    flagged = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                flagged += 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            flagged += bool(flag)
            print(
                f"{workload:9s} {m['name']:12s} median {statistics.median(vals):.6g} {m['unit']:5s}"
                f" spread {spread:.4f} (bound {m['bound']}){flag}"
            )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
