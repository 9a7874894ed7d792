"""Beam-search generation against the prompted model; greedy decoding is
beam search at width 1.

Beam search is length-unnormalized: hypotheses carry raw cumulative
log-probabilities, a hypothesis finishes when it emits EOS, and the best
finished hypothesis wins (best unfinished as fallback). Ties break toward
the lower token id, then the earlier beam slot, so decoding is fully
deterministic. Each step cuts the candidates to those scoring at least the
beam-th best with ``np.partition`` and ranks the few that survive in
Python, by (NaN last, -score, token id, slot).

Decoding is incremental: each step runs the new decoder row of every live
hypothesis in one batched call, against the K/V rows its parent left at the
step before in the decode's own ``DecoderCache`` (see ``model.decode_logits``).
Every entry point runs under ``autodiff.no_grad``, so no decoding op records
a tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import EOS_ID, Document
from .model import (
    BackboneParams,
    DecoderCache,
    EncodedSource,
    PromptConfig,
    PromptSet,
    check_rows,
    decode_logits,
    encode_source,
    teacher_forced_logits,
)


@dataclass(frozen=True)
class Hypothesis:
    ids: tuple[int, ...]
    logp: float
    finished: bool


class Generation(list):
    """Generated token ids; ``logp`` is their cumulative log-probability."""

    __slots__ = ("logp",)

    def __init__(self, ids, logp: float) -> None:
        super().__init__(ids)
        self.logp = logp


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _next_logprobs(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    enc: EncodedSource,
    cache: DecoderCache,
    prefixes,
) -> np.ndarray:
    """Log-probabilities [B, vocab] of the token after each of the equal-length
    ``prefixes``, from one decoder call on the decode's ``cache``."""
    logits, _ = decode_logits(backbone, prompts, config, enc, prefixes, cache=cache)
    return _log_softmax(logits.data[:, -1])


def _check_lengths(backbone: BackboneParams, config: PromptConfig, max_len: int, beam: int = 1) -> None:
    """Reject a beam width, or a max_len the decoder has no rows for, before any decoding work."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    check_rows(config, backbone.dims.max_pos, targets=max_len, where=f"max_len {max_len}: ")


def greedy_decode(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    src: Document,
    max_len: int = 256,
) -> Generation:
    """The token of highest cumulative log-probability at each step, ties to
    the lower id, until EOS or max_len: ``beam_search`` at width 1."""
    return beam_search(backbone, prompts, config, src, beam=1, max_len=max_len)


def _select(
    beams: list[Hypothesis], live: list[int], logprobs: np.ndarray, beam: int
) -> list[tuple[int, int, float]]:
    """The ``beam`` best candidates of one step, best first, as (parent beam
    slot, token id, cumulative log-probability).

    Row r of ``logprobs`` [len(live), vocab] scores the token after
    ``beams[live[r]]``. Every other hypothesis is closed and competes as
    itself, with its last token id (-1 for none). Equal scores go to the
    lower token id, then the earlier beam slot.
    """
    vocab = logprobs.shape[1]
    closed = [slot for slot in range(len(beams)) if slot not in live]
    # Live candidates row by row, then the closed ones: index i < n_live is
    # row i // vocab, token i % vocab.
    n_live = len(live) * vocab
    score = np.empty(n_live + len(closed))
    logp = np.array([beams[slot].logp for slot in live])
    np.add(logp[:, None], logprobs, out=score[:n_live].reshape(len(live), vocab))
    score[n_live:] = [beams[slot].logp for slot in closed]
    # Only candidates scoring at least the beam-th best can be chosen, so
    # the ranking runs on those alone (a NaN score is kept, not dropped).
    cut = max(score.size - beam, 0)
    kth = np.partition(score, cut)[cut]
    keep = np.nonzero(~(score < kth))[0]
    ranked = []
    for i, x in zip(keep.tolist(), score[keep].tolist()):
        if i < n_live:
            slot, token = live[i // vocab], i % vocab
        else:
            slot = closed[i - n_live]
            token = beams[slot].ids[-1] if beams[slot].ids else -1
        # NaN ranks last; in the score's place it would compare with nothing.
        ranked.append((x != x, 0.0 if x != x else -x, token, slot, x))
    ranked.sort()
    return [(slot, token, x) for _, _, token, slot, x in ranked[:beam]]


@ad.no_grad()
def beam_search(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    src: Document,
    beam: int = 4,
    max_len: int = 256,
) -> Generation:
    """Standard beam search over cumulative log-probability.

    The search stops when every hypothesis has finished or reached max_len.
    The result is a list of token ids that also carries the winner's
    cumulative log-probability. With beam=1 it is ``greedy_decode``.
    """
    _check_lengths(backbone, config, max_len, beam)
    enc, cache = encode_source(backbone, prompts, config, src), DecoderCache()
    beams = [Hypothesis((), 0.0, False)]
    best_finished: Hypothesis | None = None
    for _ in range(max_len):
        # Every unfinished hypothesis has the same length and extends one of
        # the last step's, so one cached call scores them all.
        live = [slot for slot, hyp in enumerate(beams) if not hyp.finished]
        if not live:
            break
        logprobs = _next_logprobs(backbone, prompts, config, enc, cache, [beams[s].ids for s in live])
        chosen = []
        for slot, tok, score in _select(beams, live, logprobs, beam):
            parent = beams[slot]
            if not parent.finished:
                parent = Hypothesis(parent.ids + (tok,), score, tok == EOS_ID)
            chosen.append(parent)
        beams = chosen
        # A finished hypothesis can later be crowded out of the beam by
        # longer partial hypotheses; remember the best one ever selected.
        for hyp in beams:
            if hyp.finished and (best_finished is None or hyp.logp > best_finished.logp):
                best_finished = hyp

    best = best_finished if best_finished is not None else max(beams, key=lambda h: h.logp)
    return Generation(best.ids, best.logp)


@ad.no_grad()
def sequence_logprob(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    src: Document,
    ids,
) -> float:
    """Cumulative log-probability of ``ids`` under the prompted model, every
    id counted (PAD and BOS included), from one ``teacher_forced_logits`` pass."""
    logits, targets = teacher_forced_logits(backbone, prompts, config, [(src, ids)])
    total, _ = ad.cross_entropy_sum(logits, targets)
    return -float(total.data)
