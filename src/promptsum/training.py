"""MLE training of prompts (or the whole model) with Adam and warmup/decay.

Prompt-only mode freezes the backbone: gradients still flow through it, but
only the prompt tensors carry optimizer state and receive updates. Training
is fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EOS_ID, PAD_ID, SummaryPair
from .model import (
    BackboneParams,
    PromptConfig,
    PromptSet,
    check_rows,
    # Unused here, but perfbench/spans.py wraps both at this import site too.
    decode_logits,
    encode_source,
    teacher_forced_logits,
)
from .rouge import rouge_n_f1

MODES = ("prompt_only", "full_model")


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. Exactly one of warmup_steps/warmup_ratio is set;
    a ratio is resolved against the stage's total step count by run_stage."""

    mode: str = "prompt_only"
    peak_lr: float = 3e-4
    warmup_steps: int | None = 100
    warmup_ratio: float | None = None
    epochs: int = 400
    batch: int = 8
    grad_accum: int = 10
    beta1: float = 0.9
    beta2: float = 0.998
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # Written so that NaN fails each check: a NaN or infinite setting would
        # turn the Adam moments or the prompts non-finite.
        if not 0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be finite and > 0, got {self.peak_lr}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.warmup_ratio is not None and not 0 <= self.warmup_ratio < math.inf:
            raise ValueError(f"warmup_ratio must be finite and >= 0, got {self.warmup_ratio}")
        if self.warmup_steps is not None and self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch < 1 or self.grad_accum < 1:
            raise ValueError("batch and grad_accum must be >= 1")
        if (self.warmup_steps is None) == (self.warmup_ratio is None):
            raise ValueError("set exactly one of warmup_steps / warmup_ratio")


@dataclass
class TrainState:
    prompts: PromptSet
    moments: dict[str, tuple[np.ndarray, np.ndarray]]
    step: int = 0
    loss_history: list[dict] = field(default_factory=list)
    # Which prompts ``run_stage`` returned: {"by": "dev_rouge1", "epoch": n}
    # for the best dev epoch, or {"by": "final", "epoch": n} without a dev set.
    selected: dict | None = None


def trainable_tensors(
    backbone: BackboneParams, prompts: PromptSet, mode: str
) -> dict[str, Tensor]:
    """The tensors the optimizer may touch, by checkpoint name."""
    out: dict[str, Tensor] = {}
    if mode == "full_model":
        out.update({f"backbone/{name}": t for name, t in backbone.params.items()})
    out.update(prompts.named_tensors())
    return out


def init_train_state(
    prompts: PromptSet, backbone: BackboneParams, config: TrainConfig
) -> TrainState:
    moments = {
        name: (np.zeros_like(t.data), np.zeros_like(t.data))
        for name, t in trainable_tensors(backbone, prompts, config.mode).items()
    }
    return TrainState(prompts=prompts, moments=moments)


def noam_lr(step: int, warmup_steps: int, peak_lr: float) -> float:
    """Linear warmup to peak_lr at step == warmup_steps, then 1/sqrt decay."""
    if warmup_steps < 1:
        raise ValueError("warmup_steps must be >= 1")
    if step < 1:
        raise ValueError("step must be >= 1")
    return peak_lr * min(step / warmup_steps, math.sqrt(warmup_steps / step))


def batch_mean_nll(
    backbone: BackboneParams,
    prompts: PromptSet,
    pconfig: PromptConfig,
    batch: list[SummaryPair],
) -> tuple[Tensor, int]:
    """Token-weighted mean NLL over a batch of pairs (teacher forcing), and the
    number of non-PAD target tokens it averages over. All pairs go through one
    ``teacher_forced_logits`` pass, so the whole batch is on one tape: this is
    the loss ``grad_check`` differentiates, and the one-tape reference that
    ``train_step``'s per-pair accumulation is tested against. Each pair's rows
    are projected onto the vocabulary on their own, as in ``train_step``."""
    pairs = [(pair.document, pair.summary) for pair in batch]
    logits, targets = teacher_forced_logits(backbone, prompts, pconfig, pairs)
    total, n_tokens = ad.cross_entropy_sum(logits, targets, ignore_id=PAD_ID)
    return ad.scale(total, 1.0 / n_tokens), n_tokens


def check_lengths(
    pairs: Iterable[tuple[int, SummaryPair]], config: PromptConfig, max_pos: int, source: str
) -> None:
    """Reject, before any training work, a pair the model has no positions for
    (see ``model.check_rows``). ``pairs`` yields (record index, pair); the error
    names ``source`` and the index."""
    for i, pair in pairs:
        check_rows(
            config, max_pos, source=pair.document.flat_length, targets=len(pair.summary),
            where=f"{source} record {i}: ",
        )


def _chunk(batch: list, n_chunks: int) -> list[list]:
    pieces = np.array_split(np.arange(len(batch)), n_chunks)
    return [[batch[i] for i in piece] for piece in pieces if len(piece)]


def train_step(
    state: TrainState,
    backbone: BackboneParams,
    batch: list[SummaryPair],
    config: TrainConfig,
) -> tuple[TrainState, float]:
    """One optimizer update: grad_accum micro-batches, then one Adam step.

    The accumulated gradient is the mean of the micro-batch gradients, each a
    token-mean, so accumulation over identical micro-batches matches a single
    doubled batch. A micro-batch runs forward and backward one pair at a
    time, each pair's loss divided by the micro-batch's non-PAD token count,
    so only one pair's tape is alive at once. The micro-batch's loss is one
    sum over all its pairs' row NLLs in order, as ``batch_mean_nll`` sums
    them on one tape.

    Appends to ``state.loss_history`` the step, learning rate and mean chunk
    loss, plus ``wall_s`` (the step's wall time), ``tokens`` (non-PAD target
    positions over all chunks) and ``grad_norm`` (global L2 norm of the
    accumulated gradients of the trainable tensors, before the update).
    """
    start = time.perf_counter()
    if not batch:
        raise ValueError("empty batch")
    if config.mode == "prompt_only" and not backbone.frozen:
        raise ValueError("prompt_only training requires a frozen backbone")
    if config.mode == "full_model" and backbone.frozen:
        raise ValueError("full_model training requires an unfrozen backbone")
    if config.warmup_steps is None:
        raise ValueError("warmup_ratio must be resolved to warmup_steps before train_step")

    tensors = trainable_tensors(backbone, state.prompts, config.mode)
    if set(tensors) != set(state.moments):
        raise ValueError("optimizer state does not match trainable tensors")
    for t in tensors.values():
        t.zero_grad()

    pconfig = state.prompts.config
    chunks = _chunk(batch, config.grad_accum)
    losses = []
    tokens = 0
    for chunk in chunks:
        n_tokens = sum(t != PAD_ID for pair in chunk for t in pair.summary)
        rows = []
        for pair in chunk:
            logits, targets = teacher_forced_logits(
                backbone, state.prompts, pconfig, [(pair.document, pair.summary)]
            )
            total, kept = ad.cross_entropy_rows(logits, targets, ignore_id=PAD_ID)
            ad.scale(ad.scale(total, 1.0 / n_tokens), 1.0 / len(chunks)).backward()
            rows.append(kept)
            del logits, total  # the pair's tape, before the next pair's forward
        losses.append(float(np.concatenate(rows).sum() * (1.0 / n_tokens)))
        tokens += n_tokens
    mean_loss = float(np.mean(losses))
    if not math.isfinite(mean_loss):
        raise TrainingDivergedError(
            f"non-finite loss at step {state.step + 1} (chunk losses: {losses})"
        )

    grads = {
        name: t.grad if t.grad is not None else np.zeros_like(t.data)
        for name, t in tensors.items()
    }
    grad_norm = float(np.sqrt(sum((g * g).sum() for g in grads.values())))

    state.step += 1
    lr = noam_lr(state.step, config.warmup_steps, config.peak_lr)
    for name, t in tensors.items():
        g = grads[name]
        m, v = state.moments[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**state.step)
        v_hat = v / (1.0 - config.beta2**state.step)
        t.data -= lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)

    state.loss_history.append(
        {
            "step": state.step,
            "lr": lr,
            "loss": mean_loss,
            "wall_s": time.perf_counter() - start,
            "tokens": tokens,
            "grad_norm": grad_norm,
        }
    )
    return state, mean_loss


def grad_check(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    pair: SummaryPair | list[SummaryPair],
    epsilon: float = 1e-4,
    n_coords: int = 50,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference prompt gradients
    of ``batch_mean_nll`` on one pair or on a micro-batch of pairs.

    Checks at least n_coords random coordinates of every prompt tensor (all of
    them for small tensors). The numeric side uses the fourth-order central
    stencil so truncation error stays below the 1e-4 fidelity bar even on
    coordinates whose gradient is orders of magnitude smaller than the local
    curvature.
    """
    batch = pair if isinstance(pair, list) else [pair]

    def loss_value() -> float:
        return float(batch_mean_nll(backbone, prompts, config, batch)[0].data)

    tensors = prompts.named_tensors()
    for t in tensors.values():
        t.zero_grad()
    batch_mean_nll(backbone, prompts, config, batch)[0].backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in tensors.items()
    }

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        count = min(n_coords, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        flat_analytic = analytic[name].reshape(-1)
        for c in coords:
            orig = flat[c]
            samples = []
            for offset in (2 * epsilon, epsilon, -epsilon, -2 * epsilon):
                flat[c] = orig + offset
                samples.append(loss_value())
            flat[c] = orig
            f2u, f1u, f1d, f2d = samples
            # grouped as differences so an unused coordinate cancels exactly
            numeric = (8.0 * (f1u - f1d) - (f2u - f2d)) / (12.0 * epsilon)
            rel = abs(flat_analytic[c] - numeric) / max(
                abs(flat_analytic[c]), abs(numeric), 1e-8
            )
            max_rel = max(max_rel, rel)
    return max_rel


def _dev_rouge1(
    backbone: BackboneParams, prompts: PromptSet, pconfig: PromptConfig, dev: list[SummaryPair]
) -> float:
    from .decoding import greedy_decode

    max_len = max(len(p.summary) for p in dev)
    scores = []
    for pair in dev:
        gen = greedy_decode(backbone, prompts, pconfig, pair.document, max_len=max_len)
        cand = [t for t in gen if t != EOS_ID]
        scores.append(rouge_n_f1(cand, pair.summary_content, 1))
    return float(np.mean(scores))


def run_stage(
    data: list[SummaryPair],
    dev: list[SummaryPair],
    state: TrainState,
    backbone: BackboneParams,
    config: TrainConfig,
) -> TrainState:
    """Epoch loop over shuffled data; keeps the best-dev checkpoint.

    After each epoch the dev set is greedy-decoded and scored with ROUGE-1 F1;
    ``loss_history`` gets ``{"epoch": n, "dev_rouge1": x, "dev_s": t}``, with
    t the dev pass's wall time. Every trainable tensor (the prompts, and the
    backbone in ``full_model`` mode) is restored to its value at the best
    epoch. With no dev set the final checkpoint is returned. Either way
    ``state.selected`` records the choice: ``{"by": "dev_rouge1" | "final", "epoch": n}``.
    """
    if not data:
        raise ValueError("training data is empty")
    if config.mode == "prompt_only":
        backbone.freeze()
    else:
        backbone.unfreeze()

    span = config.batch * config.grad_accum
    steps_per_epoch = math.ceil(len(data) / span)
    if config.warmup_steps is not None:
        warmup = config.warmup_steps
    else:
        warmup = max(1, round(config.warmup_ratio * config.epochs * steps_per_epoch))
    step_config = replace(config, warmup_steps=warmup, warmup_ratio=None)

    tensors = trainable_tensors(backbone, state.prompts, config.mode)
    rng = np.random.default_rng(config.seed)
    best_score = -np.inf
    best_snap: dict[str, np.ndarray] | None = None
    best_epoch = config.epochs
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(data))
        for s in range(steps_per_epoch):
            idx = perm[s * span : (s + 1) * span]
            batch = [data[i] for i in idx]
            state, _ = train_step(state, backbone, batch, step_config)
        if dev:
            start = time.perf_counter()
            score = _dev_rouge1(backbone, state.prompts, state.prompts.config, dev)
            dev_s = time.perf_counter() - start
            state.loss_history.append({"epoch": epoch, "dev_rouge1": score, "dev_s": dev_s})
            if score > best_score:
                best_score, best_epoch = score, epoch
                best_snap = {name: t.data.copy() for name, t in tensors.items()}

    if best_snap is not None:
        for name, t in tensors.items():
            t.data[...] = best_snap[name]
    state.selected = {"by": "dev_rouge1" if best_snap is not None else "final", "epoch": best_epoch}
    return state
