"""The benchmark's stored references still hold for its first operations.

``perfbench/run.py`` compares every operation of a run with
``perfbench/reference/`` (losses within ``LOSS_RTOL``, token ids and ROUGE
exact, perplexity within ``PPL_RTOL``). This runs the first operations of
seed 0, and of held-out seed 7, through the workload's own ``check`` and
``compare``, so a kernel change that drifts past that gate fails here in
seconds, not only in a 40-second benchmark run. The workload module is imported as it is, and
nothing is written under ``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.setitem(sys.modules, "gen", _load("gen"))  # imported by name
        yield _load("workloads")


@pytest.mark.parametrize(
    "name, n_ops, seed",
    [
        pytest.param("train", 6, 0, id="train-6"),
        pytest.param("generate", 4, 0, id="generate-4"),
        pytest.param("train", 3, 7, id="train-3-seed7"),
        pytest.param("generate", 3, 7, id="generate-3-seed7"),
    ],
)
def test_first_operations_match_the_stored_reference(workloads, tmp_path, name, n_ops, seed):
    with open(BENCH / "reference" / f"{name}.json", encoding="utf-8") as fh:
        reference = json.load(fh)["seeds"][str(seed)]
    w = workloads.WORKLOADS[name](str(tmp_path), seed)
    w.write_inputs()
    w.setup()
    for i in range(n_ops):
        w.prepare(i)
        _, output = w.op(i)
        output = w.collect(output)
        problems = w.check(i, output)
        for sub, msgs in w.compare(output, reference[i]).items():
            problems.setdefault(sub, []).extend(msgs)
        assert not problems, f"{name} operation {i}: {problems}"
