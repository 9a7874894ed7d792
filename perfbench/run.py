"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload train --seed 0 --seconds 40 --trace 0

Workloads are ``train``, ``generate`` and ``ingest`` (see README.md). The
load is a closed loop with one client in this one process: each operation
starts when the previous one has ended, and no operation starts that would
end after ``--seconds``. Every operation's output is checked. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``. The lines before it print every metric by name and unit.
A full record of the run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy is imported, here and in every child.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import record

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
SETUP_REPEATS = 16


def import_package():
    """Import the package from this checkout's ``src``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "promptsum", "__init__.py")):
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import promptsum

    if os.path.dirname(os.path.abspath(promptsum.__file__)) != os.path.join(SRC, "promptsum"):
        raise SystemExit(f"error: imported promptsum from {promptsum.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "generate", "ingest"))
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe_setup(workload: str, work_dir: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, probe, workload, work_dir, str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def load_reference(workload: str, seed: int) -> list[dict]:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed), [])


def run_ops(w, seconds: float, reference: list[dict], tracer, probe) -> dict:
    """The closed loop. With a tracer, odd operations are traced, even ones not.

    ``probe()`` times one fresh process's set-up. It is called SETUP_REPEATS
    times, spread evenly over the window between operations, so ``setup_s``
    samples the machine's speed over the whole run. Probe time is added to
    the window, not taken from it.
    """
    setup_samples: list[float] = []
    probe_s = 0.0
    durations: list[float] = []
    traced: list[bool] = []
    items: list[int] = []
    attempted = failed = 0
    problems: list[str] = []
    start_window = time.perf_counter()
    i = 0
    while True:
        window_s = time.perf_counter() - start_window - probe_s
        due = len(setup_samples) * seconds / SETUP_REPEATS
        if len(setup_samples) < SETUP_REPEATS and window_s >= due:
            begin = time.perf_counter()
            setup_samples.append(probe())
            probe_s += time.perf_counter() - begin
        w.prepare(i)
        is_traced = tracer is not None and i % 2 == 1
        if is_traced:
            tracer.install(i)
        start = time.perf_counter()
        try:
            n, output = w.op(i)
            error = None
        except Exception:  # an operation that raises is a failed operation
            n, output, error = 0, None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if is_traced:
            tracer.uninstall()
        attempted += len(w.subops)
        if error is not None:
            bad = {sub: [error] for sub in w.subops}
        else:
            output = w.collect(output)
            bad = w.check(i, output)
            if i < len(reference):
                for sub, msgs in w.compare(output, reference[i]).items():
                    bad.setdefault(sub, []).extend(msgs)
        failed += len(bad)
        problems += [f"op {i} {sub}: {msg}" for sub, msgs in bad.items() for msg in msgs]
        durations.append(elapsed)
        traced.append(is_traced)
        items.append(n)
        i += 1
        if time.perf_counter() - start_window - probe_s + elapsed > seconds:
            break
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(probe())
    return {
        "setup_samples": setup_samples,
        "durations": durations,
        "traced": traced,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reference_ops": min(i, len(reference)),
    }


def end_to_end(workload: str, loop: dict) -> tuple[dict, dict]:
    """(BENCHMARK.json end-to-end metrics, per-workload names for the same figures).

    Only untraced operations count, so a traced run's figures are comparable.
    """
    untraced = [k for k, t in enumerate(loop["traced"]) if not t]
    d = [loop["durations"][k] for k in untraced]
    rate = sum(loop["items"][k] for k in untraced) / sum(d)
    p50 = statistics.median(d)
    metrics = {
        "setup_s": (statistics.median(loop["setup_samples"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (rate, "1/s"),
    }
    named = {"ops_failed_share": (loop["failed"] / loop["attempted"], "share")}
    if workload == "train":
        named["train_tokens_per_s"] = (rate, "tok/s")
        named["train_step_s_p50"] = (p50, "s")
        p90 = statistics.quantiles(d, n=10, method="inclusive")[-1] if len(d) > 1 else d[0]
        named["train_step_s_p90"] = (p90, "s")
        # A tail percentile is trustworthy with ten or more samples beyond it.
        named["train_steps_beyond_p90"] = (sum(x > p90 for x in d), "count")
    elif workload == "generate":
        named["gen_tokens_per_s"] = (rate, "tok/s")
        named["gen_doc_s_p50"] = (p50, "s")
    else:
        named["ingest_docs_per_s"] = (rate, "doc/s")
        named["ingest_round_s_p50"] = (p50, "s")
    return metrics, named


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import_package()
    import spans
    import workloads

    for d in (RESULTS_DIR, WORK_DIR):
        os.makedirs(d, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        w = workloads.WORKLOADS[args.workload](work_dir, args.seed)
        w.write_inputs()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(spans.SETUP)
        w.setup()
        if tracer is not None:
            tracer.uninstall()
        loop = run_ops(
            w,
            args.seconds,
            load_reference(args.workload, args.seed),
            tracer,
            lambda: probe_setup(args.workload, work_dir, args.seed),
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e, named = end_to_end(args.workload, loop)
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "record": record.collect(ROOT, args.seed, BLAS_VARS),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **named}.items()},
        "setup_samples_s": loop["setup_samples"],
        "op_durations_s": loop["durations"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "reference_ops_checked": loop["reference_ops"],
        "problems": loop["problems"],
    }
    for name, (value, unit) in {**e2e, **named}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops {len(loop['durations'])} ({loop['attempted']} attempted, {loop['failed']} failed), "
          f"{loop['reference_ops']} checked against the stored reference")
    if args.trace:
        layers = spans.layer_metrics(tracer, loop["durations"], loop["traced"], w.layer_counts())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        result["per_layer"] = metrics
        tracer.write(os.path.join(RESULTS_DIR, f"{tag}-spans.jsonl"))
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    for line in loop["problems"][:20]:
        print(f"check failed: {line}")
    with open(os.path.join(RESULTS_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
