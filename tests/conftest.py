"""Shared builders for tiny models and synthetic corpora."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

# BLAS on one thread, as in perfbench/run.py: two BLAS threads on a two-CPU
# machine thrash whenever another process holds one of the CPUs. This has to
# run before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from promptsum.corpus import Document, EOS_ID, SummaryPair
from promptsum.model import ModelDims, PromptConfig, init_backbone, init_prompts


def make_doc(*sentences) -> Document:
    return Document(tuple(tuple(s) for s in sentences))


def make_pair(doc: Document, summary) -> SummaryPair:
    summary = tuple(summary)
    if summary[-1] != EOS_ID:
        summary = summary + (EOS_ID,)
    return SummaryPair(doc, summary)


def tiny_model(
    seed: int = 0,
    vocab: int = 20,
    d: int = 8,
    layers: int = 1,
    heads: int = 2,
    ffn: int = 16,
    max_pos: int = 64,
    prompt_seed: int | None = None,
    **config_kw,
):
    """A d=8 single-layer model with prompts; returns (backbone, prompts, config)."""
    dims = ModelDims(d=d, layers=layers, heads=heads, ffn=ffn, vocab=vocab, max_pos=max_pos)
    backbone = init_backbone(dims, seed=seed)
    config_kw.setdefault("len_en", 3)
    config_kw.setdefault("len_de", 2)
    config_kw.setdefault("strategy", "sequential")
    if config_kw["strategy"] in ("sequential", "fixed_k"):
        config_kw.setdefault("n_max", 3)
    config = PromptConfig(**config_kw)
    prompts = init_prompts(config, backbone, seed if prompt_seed is None else prompt_seed)
    return backbone, prompts, config


def random_document(rng: np.random.Generator, vocab: int = 20, max_sentences: int = 5, max_len: int = 6) -> Document:
    n_sent = int(rng.integers(1, max_sentences + 1))
    sentences = []
    for _ in range(n_sent):
        length = int(rng.integers(1, max_len + 1))
        sentences.append(tuple(int(v) for v in rng.integers(4, vocab, size=length)))
    return Document(tuple(sentences))


def make_lead_corpus(n: int, seed: int, min_sentences: int = 4, max_sentences: int = 7) -> list[dict]:
    """Template news-ish records whose summary is the document's first sentence."""
    rng = np.random.default_rng(seed)
    nouns = ["cat", "dog", "bird", "fox", "cow", "pig", "owl", "bee"]
    verbs = ["sees", "likes", "chases", "finds", "hears", "follows"]
    places = ["park", "barn", "field", "river", "garden", "forest"]
    records = []
    for _ in range(n):
        n_sent = int(rng.integers(min_sentences, max_sentences))
        sents = []
        for _ in range(n_sent):
            noun, verb, place, noun2 = (
                rng.choice(nouns),
                rng.choice(verbs),
                rng.choice(places),
                rng.choice(nouns),
            )
            sents.append(f"The {noun} {verb} the {noun2} in the {place}.")
        records.append({"document": " ".join(sents), "summary": sents[0]})
    return records


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def perfbench_spans():
    """``perfbench/spans.py``, loaded from its file: the benchmark is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
