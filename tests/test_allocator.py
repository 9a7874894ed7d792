"""The glibc allocator thresholds set at package import."""

import json
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import promptsum

MIB = 1 << 20

# A d=32, one-layer model with 20 + 20 prompts, 60-token sources and eight
# pairs, after one train step: about 30 ms a step.
_PROBE_MODEL = textwrap.dedent(
    """
    import numpy as np
    from promptsum.corpus import Document, EOS_ID, SummaryPair
    from promptsum.model import ModelDims, PromptConfig, init_backbone, init_prompts
    from promptsum.training import TrainConfig, init_train_state, train_step

    dims = ModelDims(d=32, layers=1, heads=4, ffn=64, vocab=200, max_pos=128)
    backbone = init_backbone(dims, seed=0)
    backbone.freeze()
    prompts = init_prompts(PromptConfig(len_en=20, len_de=20, strategy="none"), backbone, 0)
    rng = np.random.default_rng(0)
    pairs = [
        SummaryPair(
            Document(tuple(tuple(int(v) for v in rng.integers(4, 200, size=10)) for _ in range(6))),
            tuple(int(v) for v in rng.integers(4, 200, size=10)) + (EOS_ID,),
        )
        for _ in range(8)
    ]
    config = TrainConfig(peak_lr=1e-2, warmup_steps=10, batch=8, grad_accum=1)
    state = init_train_state(prompts, backbone, config)
    train_step(state, backbone, pairs, config)
    """
)

# Prints the minor page faults of each measured warm step as a JSON list.
_FAULT_PROBE = _PROBE_MODEL + textwrap.dedent(
    """
    import json, resource
    faults = []
    for step in range(7):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_step(state, backbone, pairs, config)
        if step >= 2:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(json.dumps(faults))
    """
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_warm_train_steps_reuse_freed_heap():
    # With glibc's default thresholds each warm step of this model faults
    # about 750 pages in again; with the package's thresholds, a handful.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    src = str(Path(promptsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    faults = json.loads(out.stdout.splitlines()[-1])
    assert sorted(faults)[len(faults) // 2] < 100, faults


def test_a_train_step_holds_one_pairs_tape_at_a_time():
    # tracemalloc counts NumPy's buffers: a deterministic measure, no RSS.
    # The eight pairs are alike, so a step that holds one pair's tape at a
    # time peaks as a one-pair step does (0.99x); one that keeps the previous
    # pair's tape through the next forward reads 1.11x, one tape for all 4.9x.
    probe = {}
    exec(_PROBE_MODEL, probe)
    state, backbone, pairs, config = (probe[name] for name in ("state", "backbone", "pairs", "config"))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        peaks = {}
        for n in (1, 8):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            probe["train_step"](state, backbone, pairs[:n], config)
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peaks[8] <= 1.05 * peaks[1], peaks


class _Mallopt:
    """Stands in for libc's ``mallopt``: records each call, answers from ``results``."""

    def __init__(self, *results):
        self.results = list(results)
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.results.pop(0)


@pytest.fixture
def mallopt(monkeypatch):
    fake = _Mallopt(1, 1)
    monkeypatch.setattr(promptsum.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(promptsum.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=fake))
    return fake


def test_sets_the_mmap_threshold_then_the_trim_threshold(mallopt):
    assert promptsum._keep_freed_heap({}) is True
    assert mallopt.calls == [(-3, 32 * MIB), (-1, 128 * MIB)]


@pytest.mark.parametrize(
    "environ",
    [{"MALLOC_ARENA_MAX": "2"}, {"MALLOC_TRIM_THRESHOLD_": "0"}, {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"}],
)
def test_a_user_allocator_setting_skips_both_calls(mallopt, environ):
    assert promptsum._keep_freed_heap(environ) is False
    assert mallopt.calls == []


def test_other_tunables_do_not_skip(mallopt):
    assert promptsum._keep_freed_heap({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2"}) is True


def _raise_value_error(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [_raise_value_error, lambda name: None, lambda name: "musl 1.2"])
def test_a_libc_other_than_glibc_is_a_no_op(mallopt, monkeypatch, confstr):
    monkeypatch.setattr(promptsum.os, "confstr", confstr)
    assert promptsum._keep_freed_heap({}) is False
    assert mallopt.calls == []


def test_trim_is_not_set_when_the_mmap_call_fails(mallopt):
    mallopt.results = [0]
    assert promptsum._keep_freed_heap({}) is False
    assert mallopt.calls == [(-3, 32 * MIB)]


def test_a_failed_trim_call_is_reported(mallopt):
    mallopt.results = [1, 0]
    assert promptsum._keep_freed_heap({}) is False
    assert len(mallopt.calls) == 2
