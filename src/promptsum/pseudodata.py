"""Self-supervised pseudo summary pairs via Lead and gap-sentence selection.

Lead takes a document's first sentences as the pseudo summary (news lead
bias); gap-sentence selection removes the sentences that best summarize the
rest of the document, scored by leave-one-out ROUGE-1 F1. A quality filter
drops pairs whose summary/document ROUGE-1 falls below mean - variance of
the few-shot reference scores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import EOS_ID, Document, SummaryPair
from .rouge import overlap_f1, rouge_n_f1

REASON_TOO_FEW_SENTENCES = "too-few-sentences"
REASON_SOURCE_SHORTER = "source-shorter-than-summary"

# Junk commonly prefixed to news summaries: bylines, agency tags, leading dates.
CLEAN_PATTERNS = (
    r"\b[Bb]y\s+[A-Z][\w.'-]*(?:\s+[A-Z][\w.'-]*){0,3}",
    r"\([^)]{1,40}\)",
    r"^\s*\d{4}-\d{2}-\d{2}\s*",
)


@dataclass(frozen=True)
class Rejection:
    """Normal (non-error) outcome: the document cannot yield a pseudo pair."""

    reason: str


@dataclass(frozen=True)
class GsgScores:
    """Per-sentence principal scores in [0, 1], one per document sentence."""

    scores: tuple[float, ...]


@dataclass(frozen=True)
class FilterThreshold:
    epsilon: float
    sigma2: float

    @property
    def threshold(self) -> float:
        return self.epsilon - self.sigma2


class DegenerateDocumentError(ValueError):
    pass


def clean_summary_text(text: str) -> str:
    """Strip byline/agency/date junk from a summary sentence string."""
    for pattern in CLEAN_PATTERNS:
        text = re.sub(pattern, " ", text)
    return re.sub(r"\s+", " ", text).strip()


def build_lead_pair(
    doc: Document,
    lead_n: int = 3,
    min_sum: int = 50,
    target_sum: int = 70,
) -> SummaryPair | Rejection:
    """Take the first ``lead_n`` sentences as the pseudo summary.

    If that summary is shorter than ``min_sum`` tokens, leading sentences of
    the remainder are moved into it until it reaches ``target_sum`` tokens or
    the remainder runs out. Pairs whose pseudo document ends up shorter than
    the pseudo summary are rejected.
    """
    if lead_n < 1:
        raise ValueError(f"lead_n must be >= 1, got {lead_n}")
    if len(doc.sentences) < lead_n + 1:
        return Rejection(REASON_TOO_FEW_SENTENCES)
    summary_sents = list(doc.sentences[:lead_n])
    rest = list(doc.sentences[lead_n:])
    summary_len = sum(len(s) for s in summary_sents)
    if summary_len < min_sum:
        while summary_len < target_sum and rest:
            moved = rest.pop(0)
            summary_sents.append(moved)
            summary_len += len(moved)
    rest_len = sum(len(s) for s in rest)
    if rest_len < summary_len:
        return Rejection(REASON_SOURCE_SHORTER)
    summary = tuple(chain.from_iterable(summary_sents)) + (EOS_ID,)
    return SummaryPair(Document(tuple(rest)), summary)


def gsg_scores(doc: Document) -> GsgScores:
    """ROUGE-1 F1 of each sentence against the rest of the document.

    The document's unigrams are counted once: a sentence whose own count of
    token t is c finds total[t] - c copies of t in the rest. One ``np.unique``
    over the keys ``sentence * n_ids + token`` gives every sentence's own
    counts, grouped by sentence, and one ``bincount`` the document totals.
    """
    if len(doc.sentences) < 2:
        raise DegenerateDocumentError("need at least 2 sentences to score gaps")
    lengths = doc.sentence_lengths()
    flat = np.array(doc.flat, dtype=np.int64)
    n_ids = int(flat.max()) + 1
    sentence = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    keys, own = np.unique(sentence * n_ids + flat, return_counts=True)
    total = np.bincount(flat)
    shared = np.minimum(own, total[keys % n_ids] - own)
    # Every sentence has a token, so each one starts a run of keys.
    starts = np.flatnonzero(np.diff(keys // n_ids, prepend=-1))
    overlaps = np.add.reduceat(shared, starts).tolist()
    flat_length = len(flat)
    return GsgScores(tuple(
        overlap_f1(overlap, n, flat_length - n) for overlap, n in zip(overlaps, lengths)
    ))


def select_gsg_indices(doc: Document, m: int) -> list[int]:
    """Indices of the top-``m`` sentences by principal score, ascending.

    Ties in score go to the lower sentence index.
    """
    scores = gsg_scores(doc).scores
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:m])


def build_gsg_pair(doc: Document, m: int = 1) -> SummaryPair | Rejection:
    """Remove the top-``m`` highest-scoring sentences as the pseudo summary.

    Selected sentences are concatenated in original document order.
    """
    if m < 1:
        raise ValueError(f"gap-sentence count m must be >= 1, got {m}")
    if len(doc.sentences) < m + 1:
        return Rejection(REASON_TOO_FEW_SENTENCES)
    selected = select_gsg_indices(doc, m)
    summary = tuple(chain.from_iterable(doc.sentences[i] for i in selected)) + (EOS_ID,)
    chosen = set(selected)
    remaining = tuple(doc.sentences[i] for i in range(len(doc.sentences)) if i not in chosen)
    return SummaryPair(Document(remaining), summary)


def compute_filter_threshold(fewshot: list[SummaryPair]) -> FilterThreshold:
    """Mean and population variance of reference summary/document ROUGE-1."""
    if not fewshot:
        raise ValueError("few-shot set is empty")
    scores = [rouge_n_f1(p.summary_content, p.document.flat, 1) for p in fewshot]
    n = len(scores)
    epsilon = sum(scores) / n
    sigma2 = sum((r - epsilon) ** 2 for r in scores) / n
    return FilterThreshold(epsilon, sigma2)


def filter_pseudo(pairs: list[SummaryPair], threshold: FilterThreshold) -> list[SummaryPair]:
    """Keep pairs whose summary/document ROUGE-1 is >= the threshold (ties survive)."""
    cut = threshold.threshold
    return [
        p for p in pairs if rouge_n_f1(p.summary_content, p.document.flat, 1) >= cut
    ]
