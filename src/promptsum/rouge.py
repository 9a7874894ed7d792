"""ROUGE-1/2/L F1 over token-id sequences.

Scores are exact-match on this package's token ids (already lowercased); no
stemming or stopword removal. ROUGE-L is summary-level over the whole
sequence, single reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RougeScore:
    r1_f1: float
    r2_f1: float
    rl_f1: float


def ngram_counts(tokens: Sequence[int], n: int) -> Counter:
    """Multiset of n-grams; total count is max(0, len - n + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def overlap_f1(overlap: int, n_cand: int, n_ref: int) -> float:
    """F1 of a clipped overlap count; 0 when either side has no n-grams."""
    if n_cand == 0 or n_ref == 0:
        return 0.0
    return _f1(overlap / n_cand, overlap / n_ref)


def rouge_n_f1(candidate: Sequence[int], reference: Sequence[int], n: int) -> float:
    """Clipped n-gram overlap F1; 0 when either side has no n-grams.

    Unigrams are counted on the token ids themselves, not as 1-tuples.
    """
    if n == 1:
        cand = Counter(candidate)
        ref = Counter(reference)
        n_cand, n_ref = len(candidate), len(reference)
    else:
        cand = ngram_counts(candidate, n)
        ref = ngram_counts(reference, n)
        n_cand, n_ref = sum(cand.values()), sum(ref.values())
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    return overlap_f1(overlap, n_cand, n_ref)


def lcs_length(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the longest common subsequence (classic DP)."""
    m, n = len(a), len(b)
    if m == 0 or n == 0:
        return 0
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        curr = [0] * (n + 1)
        ai = a[i - 1]
        for j in range(1, n + 1):
            if ai == b[j - 1]:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[n]


def rouge_l_f1(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """LCS-based F1: P = LCS/|candidate|, R = LCS/|reference|."""
    if len(candidate) == 0 or len(reference) == 0:
        return 0.0
    lcs = lcs_length(candidate, reference)
    return _f1(lcs / len(candidate), lcs / len(reference))


def rouge_score(candidate: Sequence[int], reference: Sequence[int]) -> RougeScore:
    return RougeScore(
        r1_f1=rouge_n_f1(candidate, reference, 1),
        r2_f1=rouge_n_f1(candidate, reference, 2),
        rl_f1=rouge_l_f1(candidate, reference),
    )
