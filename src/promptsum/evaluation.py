"""Corpus-level ROUGE, generated-summary perplexity, and attention export.

Perplexity is scored under the prompted model itself, so it compares
configurations of this package against each other rather than against an
external language model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import EOS_ID, Document, SummaryPair, Vocab, atomic_open, detokenize
from .decoding import beam_search
from .model import (
    AttentionRecord,
    BackboneParams,
    PromptConfig,
    PromptSet,
    check_rows,
    # Unused here, but perfbench/spans.py wraps both at this import site too.
    decode_logits,
    encode_source,
    forward,
    teacher_forced_logits,
)
from .rouge import rouge_score


@dataclass(frozen=True)
class EvalReport:
    r1_f1: float
    r2_f1: float
    rl_f1: float
    ppl: float
    n_examples: int
    fingerprint: str


def config_fingerprint(backbone: BackboneParams, config: PromptConfig, beam: int, max_len: int) -> str:
    import hashlib
    from dataclasses import asdict

    payload = json.dumps(
        {"dims": asdict(backbone.dims), "prompts": asdict(config), "beam": beam, "max_len": max_len},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def generate_predictions(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    test: list[SummaryPair],
    beam: int = 4,
    max_len: int = 256,
    vocab: Vocab | None = None,
) -> list[dict]:
    """Beam-decode every test pair and score it; one record per pair.

    A record's ``token_ids`` is the ``Generation`` itself, so it also carries
    the winner's cumulative log-probability as ``.logp``. Every document's
    encoder length is checked before the first is decoded.
    """
    for i, pair in enumerate(test):
        check_rows(config, backbone.dims.max_pos, source=pair.document.flat_length, where=f"test document {i}: ")
    records = []
    for i, pair in enumerate(test):
        gen = beam_search(backbone, prompts, config, pair.document, beam, max_len)
        score = rouge_score([t for t in gen if t != EOS_ID], list(pair.summary_content))
        record = {
            "id": i,
            "token_ids": gen,
            "r1": score.r1_f1,
            "r2": score.r2_f1,
            "rl": score.rl_f1,
        }
        if vocab is not None:
            record["text"] = detokenize(gen, vocab)
        records.append(record)
    return records


@ad.no_grad()
def perplexity(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    pairs: list[tuple[Document, list[int]]],
) -> float:
    """exp(mean per-token NLL) of generated summaries, over all tokens of all
    pairs (PAD and BOS ids included), from one ``teacher_forced_logits`` pass."""
    logits, targets = teacher_forced_logits(backbone, prompts, config, pairs)
    total, n_tokens = ad.cross_entropy_sum(logits, targets)
    return math.exp(float(total.data) / n_tokens)


def evaluate(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    test: list[SummaryPair],
    beam: int = 4,
    max_len: int = 256,
    vocab: Vocab | None = None,
) -> tuple[EvalReport, list[dict]]:
    """Full report (ROUGE + perplexity of the generated summaries) plus predictions.

    Perplexity comes from each winning hypothesis's own cumulative
    log-probability, so no document is encoded or decoded a second time; it
    equals ``perplexity`` on the returned token ids.
    """
    if not test:
        raise ValueError("test set is empty")
    records = generate_predictions(backbone, prompts, config, test, beam, max_len, vocab)
    n_tokens = sum(len(r["token_ids"]) for r in records)
    report = EvalReport(
        r1_f1=float(np.mean([r["r1"] for r in records])),
        r2_f1=float(np.mean([r["r2"] for r in records])),
        rl_f1=float(np.mean([r["rl"] for r in records])),
        ppl=math.exp(-sum(r["token_ids"].logp for r in records) / n_tokens),
        n_examples=len(records),
        fingerprint=config_fingerprint(backbone, config, beam, max_len),
    )
    return report, records


def write_predictions(path, records: list[dict]) -> None:
    """One JSON line per record, replacing any earlier file only once complete."""
    with atomic_open(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


@ad.no_grad()
def export_attention(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    pair: SummaryPair,
    path,
) -> AttentionRecord:
    """Teacher-forced cross-attention matrix, written as header + rows.

    The header records the prompt-block boundaries (len_de rows, len_en
    columns) so the prompt-to-prompt and summary-to-source quadrants can be
    recovered from the file alone.
    """
    record = forward(backbone, prompts, config, pair.document, pair.summary).attention
    rows, cols = record.matrix.shape
    header = {
        "rows": rows,
        "cols": cols,
        "len_de": record.len_de,
        "len_en": record.len_en,
        "layers": record.layers,
        "heads": record.heads,
        "row_labels": list(record.row_labels),
        "col_labels": list(record.col_labels),
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(header) + "\n")
        for row in record.matrix:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    return record


def read_attention(path) -> AttentionRecord:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        matrix = np.array(
            [[float(v) for v in line.split()] for line in fh if line.strip()]
        )
    if matrix.shape != (header["rows"], header["cols"]):
        raise ValueError(f"{path}: matrix shape {matrix.shape} does not match header")
    return AttentionRecord(
        matrix=matrix,
        row_labels=tuple(header["row_labels"]),
        col_labels=tuple(header["col_labels"]),
        len_de=header["len_de"],
        len_en=header["len_en"],
        layers=header["layers"],
        heads=header["heads"],
    )


def quadrant_sums(record: AttentionRecord) -> dict[str, float]:
    """Mass in each quadrant; the four sums add up to the row count."""
    m = record.matrix
    de, en = record.len_de, record.len_en
    return {
        "prompt_to_prompt": float(m[:de, :en].sum()),
        "prompt_to_source": float(m[:de, en:].sum()),
        "summary_to_prompt": float(m[de:, :en].sum()),
        "summary_to_source": float(m[de:, en:].sum()),
    }
