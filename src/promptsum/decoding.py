"""Greedy and beam-search generation against the prompted model.

Beam search is length-unnormalized: hypotheses carry raw cumulative
log-probabilities, a hypothesis finishes when it emits EOS, and the best
finished hypothesis wins (best unfinished as fallback). Ties break toward
the lower token id, then the earlier beam slot, so decoding is fully
deterministic.

Decoding is incremental: each step runs only the new decoder row of each
hypothesis, against the K/V rows its parent left in the document's
``DecoderCache`` (see ``model.decode_logits``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EOS_ID, Document
from .model import (
    BackboneParams,
    EncodedSource,
    LengthOverflowError,
    PromptConfig,
    PromptSet,
    decode_logits,
    encode_source,
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


def _log_softmax(row: np.ndarray) -> np.ndarray:
    z = row - row.max()
    return z - np.log(np.exp(z).sum())


def _next_logprobs(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    enc: EncodedSource,
    prefix,
) -> np.ndarray:
    logits, _ = decode_logits(backbone, prompts, config, enc, prefix, cache=enc.cache)
    return _log_softmax(logits.data[-1])


def _check_lengths(backbone: BackboneParams, config: PromptConfig, max_len: int) -> None:
    """Reject a max_len the decoder cannot reach, before any decoding work.

    The last step runs [P_de ; BOS ; max_len - 1 generated tokens], which is
    len_de + max_len rows.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rows = config.effective_len_de + max_len
    if rows > backbone.dims.max_pos:
        raise LengthOverflowError(
            f"decoder length {rows} (len_de {config.effective_len_de} + max_len {max_len}) "
            f"exceeds max_pos {backbone.dims.max_pos}"
        )


def greedy_decode(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    src: Document,
    max_len: int = 256,
) -> list[int]:
    """Argmax decoding; ties go to the lower token id. Stops at EOS or max_len."""
    _check_lengths(backbone, config, max_len)
    enc = encode_source(backbone, prompts, config, src)
    out: list[int] = []
    while len(out) < max_len:
        logprobs = _next_logprobs(backbone, prompts, config, enc, out)
        token = int(np.argmax(logprobs))
        out.append(token)
        enc.cache.retain([out])
        if token == EOS_ID:
            break
    return out


def beam_search(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    src: Document,
    beam: int = 4,
    max_len: int = 256,
) -> Generation:
    """Standard beam search over cumulative log-probability.

    With beam=1 this reproduces greedy_decode exactly. The search stops when
    every hypothesis has finished or reached max_len. The result is a list
    of token ids that also carries the winner's cumulative log-probability.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    _check_lengths(backbone, config, max_len)
    enc = encode_source(backbone, prompts, config, src)
    beams = [Hypothesis((), 0.0, False)]
    best_finished: Hypothesis | None = None

    def extendable(hyp: Hypothesis) -> bool:
        return not hyp.finished and len(hyp.ids) < max_len

    while any(extendable(h) for h in beams):
        # Candidates as parallel arrays: cumulative log-probability, last
        # token id and parent beam slot. A closed hypothesis competes as
        # itself. Sorting on (-score, token, slot) implements "lower token
        # id, then earlier beam index" tie-breaking.
        scores, tokens, slots = [], [], []
        for slot, hyp in enumerate(beams):
            if extendable(hyp):
                logprobs = _next_logprobs(backbone, prompts, config, enc, hyp.ids)
                scores.append(hyp.logp + logprobs)
                tokens.append(np.arange(len(logprobs)))
            else:
                scores.append(np.array([hyp.logp]))
                tokens.append(np.array([hyp.ids[-1] if hyp.ids else -1]))
            slots.append(np.full(len(tokens[-1]), slot))
        score, token, slot_of = (np.concatenate(a) for a in (scores, tokens, slots))
        # Only candidates scoring at least the beam-th best can be chosen, so
        # the sort runs on those alone (a NaN score is kept, not dropped).
        if score.size > beam:
            kth = np.partition(score, score.size - beam)[score.size - beam]
            keep = np.flatnonzero(~(score < kth))
            score, token, slot_of = score[keep], token[keep], slot_of[keep]
        order = np.lexsort((slot_of, token, -score))[:beam]

        chosen = []
        for i in order:
            parent = beams[slot_of[i]]
            if extendable(parent):
                tok = int(token[i])
                parent = Hypothesis(parent.ids + (tok,), float(score[i]), tok == EOS_ID)
            chosen.append(parent)
        beams = chosen
        enc.cache.retain(h.ids for h in beams if extendable(h))
        # A finished hypothesis can later be crowded out of the beam by
        # longer partial hypotheses; remember the best one ever selected.
        for hyp in beams:
            if hyp.finished and (best_finished is None or hyp.logp > best_finished.logp):
                best_finished = hyp

    best = best_finished if best_finished is not None else max(beams, key=lambda h: h.logp)
    return Generation(best.ids, best.logp)


def sequence_logprob(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    src: Document,
    ids,
) -> float:
    """Cumulative log-probability of ``ids`` under the prompted model."""
    ids = list(ids)
    if not ids:
        raise ValueError("cannot score an empty sequence")
    enc = encode_source(backbone, prompts, config, src)
    logits, _ = decode_logits(backbone, prompts, config, enc, ids[:-1])
    total = 0.0
    for t, token in enumerate(ids):
        total += float(_log_softmax(logits.data[t])[token])
    return total
