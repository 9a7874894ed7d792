"""Toy encoder-decoder transformer with a freezable backbone and soft prompts.

The backbone (embeddings, positional table, pre-LN encoder/decoder stacks,
output projection tied to the token embedding) stands in for a pretrained
seq2seq model. Prompt tensors live outside it: a block prepended to the
encoder input, a block prepended to the decoder input, and inner-prompt rows
added elementwise to source token embeddings to mark document structure.
Cross-attention weights are captured for probing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tokenize
import zipfile
import zlib
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS_ID, Document, atomic_open

STRATEGIES = ("none", "interval", "sequential", "fixed_k")


class ConfigError(ValueError):
    pass


class LengthOverflowError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelDims:
    d: int
    layers: int
    heads: int
    ffn: int
    vocab: int
    max_pos: int

    def __post_init__(self) -> None:
        if min(self.d, self.layers, self.heads, self.ffn, self.max_pos) < 1:
            raise ConfigError("all model dimensions must be >= 1")
        if self.vocab <= 4:
            raise ConfigError("vocab must exceed the four reserved ids")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} must be divisible by heads={self.heads}")


@dataclass(frozen=True)
class PromptConfig:
    """Prompt shapes and placement.

    ``strategy`` picks the inner-prompt indexing scheme; ``n_max`` caps the
    sequential/fixed_k index (the extra overflow row makes n_max + 1 rows).
    ``shared`` makes the decoder prompt alias the encoder prompt tensor.
    """

    len_en: int = 100
    len_de: int = 100
    strategy: str = "sequential"
    k: int = 10
    n_max: int = 1
    shared: bool = False
    encoder_only: bool = False
    decoder_only: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.len_en < 0 or self.len_de < 0:
            raise ConfigError("prompt lengths must be >= 0")
        if self.strategy == "fixed_k" and self.k < 1:
            raise ConfigError("fixed_k requires k >= 1")
        if self.strategy in ("sequential", "fixed_k") and self.n_max < 1:
            raise ConfigError(f"{self.strategy} requires n_max >= 1")
        if self.encoder_only and self.decoder_only:
            raise ConfigError("encoder_only and decoder_only are mutually exclusive")
        if self.shared and self.len_en != self.len_de:
            raise ConfigError("shared prompts require len_en == len_de")

    @property
    def shares_prompt(self) -> bool:
        """P_de is P_en itself: ``shared``, with both prompts placed."""
        return self.shared and not self.encoder_only and not self.decoder_only

    @property
    def effective_len_en(self) -> int:
        return 0 if self.decoder_only else self.len_en

    @property
    def effective_len_de(self) -> int:
        return 0 if self.encoder_only else self.len_de

    @property
    def inner_rows(self) -> int:
        if self.strategy == "none":
            return 0
        if self.strategy == "interval":
            return 2
        return self.n_max + 1


def check_rows(
    config: PromptConfig, max_pos: int, *, source: int | None = None, targets: int | None = None, where: str = ""
) -> None:
    """Reject inputs the model has no positions for. The prompts are rows in front
    of each input: the encoder runs len_en + ``source`` rows, the decoder len_de +
    ``targets``, one per predicted token (a summary's length with EOS, a decode's
    max_len, one more than a teacher-forced prefix). Each must be at most ``max_pos``;
    a side given as None is not checked. ``where`` starts the error message."""
    for side, prompt, n_prompt, n, what in (
        ("encoder", "len_en", config.effective_len_en, source, "source"),
        ("decoder", "len_de", config.effective_len_de, targets, "target"),
    ):
        if n is not None and n_prompt + n > max_pos:
            raise LengthOverflowError(
                f"{where}{side} length {n_prompt + n} ({prompt} {n_prompt} + {n} {what} tokens) "
                f"exceeds max_pos {max_pos}"
            )


@dataclass
class BackboneParams:
    """Named backbone tensors plus the frozen flag."""

    dims: ModelDims
    params: dict[str, Tensor]
    frozen: bool = False

    def freeze(self) -> None:
        self.frozen = True
        for t in self.params.values():
            t.requires_grad = False

    def unfreeze(self) -> None:
        self.frozen = False
        for t in self.params.values():
            t.requires_grad = True

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.params):
            digest.update(name.encode())
            digest.update(self.params[name].data.tobytes())
        return digest.hexdigest()

    @property
    def embed(self) -> Tensor:
        return self.params["embed/token"]

    @property
    def pos(self) -> Tensor:
        return self.params["embed/pos"]

    def size(self) -> int:
        return sum(t.data.size for t in self.params.values())


@dataclass
class PromptSet:
    """The trainable prompt tensors. ``p_de`` is ``p_en`` itself when shared."""

    p_en: Tensor
    p_de: Tensor
    p_in: Tensor | None
    config: PromptConfig

    def named_tensors(self) -> dict[str, Tensor]:
        """Unique trainable tensors by checkpoint name (shared P_de omitted)."""
        out: dict[str, Tensor] = {}
        if self.p_en.data.shape[0] > 0:
            out["prompts/P_en"] = self.p_en
        if self.p_de.data.shape[0] > 0 and self.p_de is not self.p_en:
            out["prompts/P_de"] = self.p_de
        if self.p_in is not None:
            out["prompts/P_in"] = self.p_in
        return out


@dataclass(frozen=True)
class AttentionRecord:
    """Cross-attention averaged over layers and heads; rows are distributions.

    ``len_de``/``len_en`` give the prompt-block boundaries so the
    prompt-to-prompt and summary-to-source quadrants are recoverable.
    """

    matrix: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    len_de: int
    len_en: int
    layers: int
    heads: int


@dataclass(frozen=True)
class ForwardResult:
    logits: Tensor
    attention: AttentionRecord


KV = tuple[Tensor, Tensor]


@dataclass
class DecoderCache:
    """Self-attention state of one decode, held without an autodiff tape; the
    decode loop that steps it creates it.

    ``ids`` is the [B, t] batch of target prefixes of the last cached
    ``decode_logits`` call, and ``self_kv`` each layer's self-attention K/V
    over their rows [P_de ; BOS ; prefix], as [B, rows, d] arrays.
    """

    ids: np.ndarray | None = None
    self_kv: list[tuple[np.ndarray, np.ndarray]] | None = None


@dataclass(frozen=True)
class EncodedSource:
    """Encoder output for one document: the memory rows [P_en ; source] and
    each decoder layer's cross-attention K/V rows of them. Any number of
    decodes can read one."""

    memory: Tensor
    cross: list[KV]


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------


def _backbone_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    d, ffn = dims.d, dims.ffn
    shapes: dict[str, tuple[int, ...]] = {
        "embed/token": (dims.vocab, d),
        "embed/pos": (dims.max_pos, d),
    }

    def attn(prefix: str) -> None:
        for w in ("Wq", "Wk", "Wv", "Wo"):
            shapes[f"{prefix}/{w}"] = (d, d)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}/{b}"] = (d,)

    def ln(prefix: str) -> None:
        shapes[f"{prefix}/gamma"] = (d,)
        shapes[f"{prefix}/beta"] = (d,)

    for i in range(dims.layers):
        ln(f"enc{i}/ln1")
        attn(f"enc{i}/self")
        ln(f"enc{i}/ln2")
        shapes[f"enc{i}/ffn/W1"] = (d, ffn)
        shapes[f"enc{i}/ffn/b1"] = (ffn,)
        shapes[f"enc{i}/ffn/W2"] = (ffn, d)
        shapes[f"enc{i}/ffn/b2"] = (d,)
    ln("enc/ln")
    for i in range(dims.layers):
        ln(f"dec{i}/ln1")
        attn(f"dec{i}/self")
        ln(f"dec{i}/ln2")
        attn(f"dec{i}/cross")
        ln(f"dec{i}/ln3")
        shapes[f"dec{i}/ffn/W1"] = (d, ffn)
        shapes[f"dec{i}/ffn/b1"] = (ffn,)
        shapes[f"dec{i}/ffn/W2"] = (ffn, d)
        shapes[f"dec{i}/ffn/b2"] = (d,)
    ln("dec/ln")
    return shapes


def init_backbone(dims: ModelDims, seed: int) -> BackboneParams:
    """Deterministic scaled-normal initialization; frozen flag starts unset."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in _backbone_shapes(dims).items():
        leaf = name.rsplit("/", 1)[-1]
        if leaf == "gamma":
            data = np.ones(shape)
        elif leaf in ("beta", "bq", "bk", "bv", "bo", "b1", "b2"):
            data = np.zeros(shape)
        elif name in ("embed/token", "embed/pos"):
            data = rng.normal(0.0, 0.02, shape)
        else:
            data = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape)
        params[name] = Tensor(data, requires_grad=True)
    return BackboneParams(dims, params)


def init_prompts(config: PromptConfig, backbone: BackboneParams, seed: int) -> PromptSet:
    """Prompt rows copy sampled vocabulary embeddings; inner rows are N(0, 0.05).

    Vocabulary rows are sampled without replacement while the vocabulary is
    large enough, and with replacement for a prompt longer than the vocabulary.
    """
    rng = np.random.default_rng(seed)
    dims = backbone.dims
    embed = backbone.embed.data

    def vocab_rows(n: int) -> Tensor:
        if n == 0:
            return Tensor(np.zeros((0, dims.d)))
        idx = rng.choice(dims.vocab, size=n, replace=n > dims.vocab)
        return Tensor(embed[idx].copy(), requires_grad=True)

    p_en = vocab_rows(config.effective_len_en)
    p_de = p_en if config.shares_prompt else vocab_rows(config.effective_len_de)
    p_in = None
    if config.inner_rows > 0:
        p_in = Tensor(rng.normal(0.0, 0.05, (config.inner_rows, dims.d)), requires_grad=True)
    return PromptSet(p_en, p_de, p_in, config)


# --------------------------------------------------------------------------
# inner prompts
# --------------------------------------------------------------------------


def compute_n_max(
    corpus: list[Document], percentile: float = 0.85, unit: str = "sentence", k: int = 10
) -> int:
    """Largest unit count among the lowest ``percentile`` fraction of documents.

    The inner-prompt table then needs n_max + 1 rows (one per index 0..n_max-1
    plus the shared overflow row).
    """
    if not corpus:
        raise ValueError("corpus is empty")
    if not 0.0 < percentile <= 1.0:
        raise ValueError("percentile must be in (0, 1]")
    if unit == "sentence":
        counts = [len(doc.sentences) for doc in corpus]
    elif unit == "span_k":
        if k < 1:
            raise ValueError(f"span length k must be >= 1, got {k}")
        counts = [math.ceil(doc.flat_length / k) for doc in corpus]
    else:
        raise ValueError(f"unknown unit {unit!r}")
    counts.sort()
    take = math.ceil(percentile * len(counts))
    return counts[take - 1]


def assign_inner_prompts(doc: Document, config: PromptConfig) -> np.ndarray:
    """Inner-prompt row index for every flat token position."""
    if config.strategy == "none":
        raise ConfigError("no inner prompts under strategy 'none'")
    idx = np.empty(doc.flat_length, dtype=np.int64)
    if config.strategy == "fixed_k":
        spans = np.arange(doc.flat_length) // config.k
        idx[:] = np.minimum(spans, config.n_max)
        return idx
    offset = 0
    for i, sent in enumerate(doc.sentences):
        if config.strategy == "interval":
            row = i % 2
        else:  # sequential
            row = min(i, config.n_max)
        idx[offset : offset + len(sent)] = row
        offset += len(sent)
    return idx


# --------------------------------------------------------------------------
# transformer forward
# --------------------------------------------------------------------------


def _project_kv(kv_in: Tensor, params: dict[str, Tensor], prefix: str) -> KV:
    """Key and value rows of ``kv_in``."""
    k = ad.linear(kv_in, params[f"{prefix}/Wk"], params[f"{prefix}/bk"])
    v = ad.linear(kv_in, params[f"{prefix}/Wv"], params[f"{prefix}/bv"])
    return k, v


def _attention(
    q_in: Tensor,
    k: Tensor,
    v: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    heads: int,
    mask: np.ndarray | None = None,
    capture: list[np.ndarray] | None = None,
) -> Tensor:
    """Multi-head attention of the rows of ``q_in`` over projected rows ``k``/``v``.

    Axes before the last two are batch axes. ``k``/``v`` carry the same ones,
    or none, in which case every batch row attends to the same keys.
    """
    dh = q_in.data.shape[-1] // heads
    q = ad.linear(q_in, params[f"{prefix}/Wq"], params[f"{prefix}/bq"])
    out = ad.attention(q, k, v, heads, 1.0 / math.sqrt(dh), mask, capture)
    return ad.linear(out, params[f"{prefix}/Wo"], params[f"{prefix}/bo"])


def _ffn(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    h = ad.gelu(ad.linear(x, params[f"{prefix}/W1"], params[f"{prefix}/b1"]))
    return ad.linear(h, params[f"{prefix}/W2"], params[f"{prefix}/b2"])


def _causal_mask(t: int, start: int = 0) -> np.ndarray:
    """Mask for query rows start..t-1 over key rows 0..t-1."""
    return np.triu(np.full((t - start, t), -1e9), k=1 + start)


def compose_encoder_input(
    doc: Document, prompts: PromptSet, backbone: BackboneParams, config: PromptConfig
) -> Tensor:
    """[P_en ; source token embeddings], with positions and inner prompts added.

    Prompt rows take positions 0..len_en-1; token at flat position t takes
    position len_en + t plus its inner-prompt row (when a strategy is set).
    """
    len_en = config.effective_len_en
    flat = np.asarray(doc.flat, dtype=np.int64)
    check_rows(config, backbone.dims.max_pos, source=flat.size)
    tok = ad.take_rows(backbone.embed, flat)
    pos = ad.take_rows(backbone.pos, np.arange(len_en, len_en + flat.size))
    x = ad.add(tok, pos)
    if config.strategy != "none":
        if prompts.p_in is None:
            raise ConfigError(f"prompt set has no inner table for strategy {config.strategy!r}")
        inner = ad.take_rows(prompts.p_in, assign_inner_prompts(doc, config))
        x = ad.add(x, inner)
    if len_en > 0:
        pe = ad.add(prompts.p_en, ad.take_rows(backbone.pos, np.arange(len_en)))
        x = ad.concat_rows([pe, x])
    return x


def encode_source(
    backbone: BackboneParams, prompts: PromptSet, config: PromptConfig, src: Document
) -> EncodedSource:
    dims = backbone.dims
    p = backbone.params
    x = compose_encoder_input(src, prompts, backbone, config)
    for i in range(dims.layers):
        h = ad.layer_norm(x, p[f"enc{i}/ln1/gamma"], p[f"enc{i}/ln1/beta"])
        k, v = _project_kv(h, p, f"enc{i}/self")
        x = ad.add(x, _attention(h, k, v, p, f"enc{i}/self", dims.heads))
        h = ad.layer_norm(x, p[f"enc{i}/ln2/gamma"], p[f"enc{i}/ln2/beta"])
        x = ad.add(x, _ffn(h, p, f"enc{i}/ffn"))
    memory = ad.layer_norm(x, p["enc/ln/gamma"], p["enc/ln/beta"])
    return EncodedSource(memory, [_project_kv(memory, p, f"dec{i}/cross") for i in range(dims.layers)])


def _parent_rows(cached: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """For each row of ``ids`` [B, T], the row of ``cached`` [B', t] that
    holds its first t tokens; ``ids`` must extend ``cached`` (T > t)."""
    t = cached.shape[1]
    if ids.shape[1] > t:
        match = (ids[:, None, :t] == cached[None]).all(axis=-1)
        if match.any(axis=1).all():
            return match.argmax(axis=1)
    raise ValueError(
        f"prefixes of length {ids.shape[1]} do not extend the cached call's "
        f"{cached.shape[0]} prefixes of length {t}"
    )


def _gather_past(cached: np.ndarray, parent: np.ndarray, rows: int) -> np.ndarray:
    """A fresh [B, rows, d] buffer whose first rows hold, for each b, the
    cached rows of ``parent[b]``; the rows after them are left unset."""
    out = np.empty((len(parent), rows, cached.shape[-1]))
    # One slice copy per slot: on a few rows this is several times faster
    # than fancy indexing or np.take into ``out``.
    for b, j in enumerate(parent):
        out[b, : cached.shape[1]] = cached[j]
    return out


def decode_logits(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    enc: EncodedSource,
    tgt_prefix,
    capture_attention: bool = False,
    cache: DecoderCache | None = None,
) -> tuple[Tensor, list[np.ndarray] | None]:
    """Run the decoder on [P_de ; BOS ; tgt_prefix].

    ``tgt_prefix`` is one prefix or a list of B prefixes of one length, which
    run as one batch: every row tensor gets a leading axis of B, and the
    logits have shape [B, rows, vocab].

    Without a cache this is the teacher-forced pass: it returns logits for
    the len(tgt_prefix) + 1 positions that predict target tokens, plus
    per-layer cross-attention probabilities when requested. The ``P_de``
    rows give the last layer only their self-attention K/V: its queries,
    cross-attention, FFN and final layer norm run on the predicting rows
    alone, unless attention is captured, which covers every row. Every path
    reads the cross-attention K/V on ``enc``. With a cache (the decode's own),
    a call after the first must extend the prefixes of the last one: each
    row takes the self-attention K/V of the cached row whose ids are its own
    first tokens, only the rows after them are computed, and logits come
    back for those rows alone (the last predicts the token after the
    prefix). Each layer's past K/V is copied once, into the [B, t_dec, d]
    buffer that then takes the new rows' K/V. Every product keeps the batch
    axis, so a row's logits do not depend on which other rows share the
    call. The call's prefixes and K/V then replace the cached ones, and the
    call records no autodiff tape. A batch that does not extend the last
    call raises ``ValueError``.
    """
    dims = backbone.dims
    p = backbone.params
    len_de = config.effective_len_de
    ids = np.array(tgt_prefix, dtype=np.int64)
    lead = ids.shape[:-1]  # () for one prefix, (B,) for a batch
    batch = np.atleast_2d(ids)
    check_rows(config, dims.max_pos, targets=1 + ids.shape[-1])
    t_dec = len_de + 1 + ids.shape[-1]

    # A cached call serves inference only: it records no tape, so the
    # tensors it keeps on the cache hold no graph either.
    with ad.no_grad() if cache is not None else nullcontext():
        past = None
        # Rows start..t_dec-1 are computed; cached rows always cover P_de and BOS.
        start = 0
        if cache is not None and cache.ids is not None:
            parent = _parent_rows(cache.ids, batch)
            start = len_de + 1 + cache.ids.shape[1]
            past = [tuple(_gather_past(a, parent, t_dec) for a in kv) for kv in cache.self_kv]

        ids = np.concatenate([np.full(lead + (1,), BOS_ID, dtype=np.int64), ids], axis=-1)
        first = max(start - len_de, 0)
        tok = ad.take_rows(backbone.embed, ids[..., first:])
        pos = ad.take_rows(backbone.pos, np.arange(len_de + first, t_dec))
        x = ad.add(tok, pos)
        if start == 0 and len_de > 0:
            pd = ad.add(prompts.p_de, ad.take_rows(backbone.pos, np.arange(len_de)))
            x = ad.concat_rows([pd, x])

        mask = _causal_mask(t_dec, start)
        capture: list[np.ndarray] | None = [] if capture_attention else None
        # Rows before ``cut`` (the P_de rows still to compute) predict no
        # token; past the last layer's K/V they feed nothing.
        cut = max(len_de - start, 0)
        self_kv: list[KV] = []
        for i in range(dims.layers):
            h = ad.layer_norm(x, p[f"dec{i}/ln1/gamma"], p[f"dec{i}/ln1/beta"])
            k, v = _project_kv(h, p, f"dec{i}/self")
            if past is not None:
                for buf, new in zip(past[i], (k, v)):
                    buf[:, start:] = new.data.reshape(buf.shape[0], -1, dims.d)
                k, v = (Tensor(buf.reshape(lead + buf.shape[1:])) for buf in past[i])
            self_kv.append((k, v))
            if cut and capture is None and i == dims.layers - 1:
                rows = t_dec - start
                x, h, mask = ad.slice_rows(x, cut, rows), ad.slice_rows(h, cut, rows), mask[cut:]
                cut = 0
            x = ad.add(x, _attention(h, k, v, p, f"dec{i}/self", dims.heads, mask=mask))
            h = ad.layer_norm(x, p[f"dec{i}/ln2/gamma"], p[f"dec{i}/ln2/beta"])
            ck, cv = enc.cross[i]
            x = ad.add(x, _attention(h, ck, cv, p, f"dec{i}/cross", dims.heads, capture=capture))
            h = ad.layer_norm(x, p[f"dec{i}/ln3/gamma"], p[f"dec{i}/ln3/beta"])
            x = ad.add(x, _ffn(h, p, f"dec{i}/ffn"))
        x = ad.layer_norm(x, p["dec/ln/gamma"], p["dec/ln/beta"])
        if cache is not None:
            shape = (batch.shape[0], t_dec, dims.d)
            cache.ids = batch
            cache.self_kv = [tuple(t.data.reshape(shape) for t in kv) for kv in self_kv]

        if cut:
            x = ad.slice_rows(x, cut, t_dec - start)
        return ad.matmul(x, ad.transpose(backbone.embed, (1, 0))), capture


def teacher_forced_logits(
    backbone: BackboneParams, prompts: PromptSet, config: PromptConfig, pairs
) -> tuple[Tensor, np.ndarray]:
    """Teacher-forced logits of (document, ids) pairs, and the ids they score.

    The decoder runs on [P_de ; BOS ; ids[:-1]] over each encoded document,
    so a pair's row t predicts ids[t]. Each pair's rows are projected onto
    the vocabulary by their own ``decode_logits`` call, so a pair's logits do
    not depend on which pairs share the call; they are joined in order:
    logits [sum of len(ids), vocab] and targets the concatenated ids. Nothing
    is masked; a caller that drops PAD passes ``ignore_id`` to
    ``cross_entropy_sum``.
    """
    parts, targets = [], []
    for doc, ids in pairs:
        ids = list(ids)
        if not ids:
            raise ValueError("cannot score an empty sequence")
        enc = encode_source(backbone, prompts, config, doc)
        parts.append(decode_logits(backbone, prompts, config, enc, ids[:-1])[0])
        targets += ids
    logits = parts[0] if len(parts) == 1 else ad.concat_rows(parts)
    return logits, np.array(targets, dtype=np.int64)


def forward(
    backbone: BackboneParams,
    prompts: PromptSet,
    config: PromptConfig,
    src: Document,
    tgt_prefix,
) -> ForwardResult:
    """Full prompted forward pass with cross-attention capture.

    Logits have len(tgt_prefix) + 1 rows: the prediction after BOS and after
    each prefix token. The attention record covers every decoder position
    (prompts, BOS, prefix) against every encoder position (prompts, source).
    """
    dims = backbone.dims
    enc = encode_source(backbone, prompts, config, src)
    logits, capture = decode_logits(
        backbone, prompts, config, enc, tgt_prefix, capture_attention=True
    )
    assert capture is not None
    matrix = np.mean(np.stack(capture), axis=(0, 1))

    len_en = config.effective_len_en
    len_de = config.effective_len_de
    n_src = len(src.flat)
    n_prefix = len(list(tgt_prefix))
    row_labels = tuple(
        [f"P_de[{i}]" for i in range(len_de)]
        + ["BOS"]
        + [f"y[{j}]" for j in range(1, n_prefix + 1)]
    )
    col_labels = tuple(
        [f"P_en[{i}]" for i in range(len_en)] + [f"x[{j}]" for j in range(1, n_src + 1)]
    )
    record = AttentionRecord(
        matrix=matrix,
        row_labels=row_labels,
        col_labels=col_labels,
        len_de=len_de,
        len_en=len_en,
        layers=dims.layers,
        heads=dims.heads,
    )
    return ForwardResult(logits=logits, attention=record)


# --------------------------------------------------------------------------
# accounting and checkpoints
# --------------------------------------------------------------------------


def count_trainable_params(
    config: PromptConfig, d: int, mode: str = "prompt_only", backbone: BackboneParams | None = None
) -> int:
    """Number of tuned scalars: prompt rows times width, plus the backbone in full mode."""
    len_de = 0 if config.shares_prompt else config.effective_len_de
    prompt_params = d * (config.effective_len_en + len_de + config.inner_rows)
    if mode == "prompt_only":
        return prompt_params
    if mode == "full_model":
        if backbone is None:
            raise ConfigError("full_model accounting needs the backbone")
        return backbone.size() + prompt_params
    raise ConfigError(f"unknown mode {mode!r}")


CHECKPOINT_VERSION = 1


def save_checkpoint(path, backbone: BackboneParams, prompts: PromptSet) -> None:
    """Write an ``.npz`` checkpoint (suffix added if missing), replacing any
    earlier file only once the new one is complete."""
    arrays = {f"backbone/{name}": t.data for name, t in backbone.params.items()}
    arrays["prompts/P_en"] = prompts.p_en.data
    arrays["prompts/P_de"] = prompts.p_de.data
    if prompts.p_in is not None:
        arrays["prompts/P_in"] = prompts.p_in.data
    meta = {
        "version": CHECKPOINT_VERSION,
        "dims": asdict(backbone.dims),
        "prompt_config": asdict(prompts.config),
        "frozen": backbone.frozen,
    }
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with atomic_open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> tuple[BackboneParams, PromptSet]:
    """Rebuild backbone and prompts, rejecting any dimension mismatch.

    A file that cannot be read or is damaged (not a zip, truncated, corrupt
    member, a zip feature the reader does not support, a member flagged as
    encrypted, a directory offset that points before the file, an array
    header NumPy cannot parse) or malformed metadata raises
    ``CheckpointError`` naming the path.
    """
    try:
        return _read_checkpoint(path)
    # RuntimeError: zipfile on a member flagged as encrypted. SyntaxError and
    # tokenize.TokenError: NumPy on an array header it cannot parse. OSError:
    # the file cannot be opened, or zipfile seeks to a negative offset.
    except (
        zipfile.BadZipFile, EOFError, zlib.error, NotImplementedError,
        RuntimeError, SyntaxError, tokenize.TokenError, OSError,
    ) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc


def _read_checkpoint(path) -> tuple[BackboneParams, PromptSet]:
    # np.load leaves a file it opened itself open when the zip is unreadable.
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
        try:
            meta = json.loads(str(npz["__meta__"]))
        except KeyError as exc:
            raise CheckpointError(f"{path}: missing metadata header") from exc
        # Not JSON, or an object array that NumPy will not unpickle.
        except ValueError as exc:
            raise CheckpointError(f"{path}: malformed metadata header: {exc}") from exc
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: malformed metadata header")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {meta.get('version')}")
        try:
            dims = ModelDims(**meta["dims"])
            config = PromptConfig(**meta["prompt_config"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed metadata: {exc}") from exc

        def tensor(key: str, shape: tuple[int, ...]) -> np.ndarray:
            if key not in npz:
                raise CheckpointError(f"{path}: missing tensor {key}")
            data = npz[key]
            if data.shape != shape:
                raise CheckpointError(f"{path}: {key} has shape {data.shape}, expected {shape}")
            return data

        params = {
            name: Tensor(tensor(f"backbone/{name}", shape), requires_grad=True)
            for name, shape in _backbone_shapes(dims).items()
        }
        backbone = BackboneParams(dims, params)
        if meta.get("frozen"):
            backbone.freeze()

        def prompt_tensor(key: str, rows: int) -> Tensor:
            return Tensor(tensor(key, (rows, dims.d)), requires_grad=rows > 0)

        p_en = prompt_tensor("prompts/P_en", config.effective_len_en)
        p_de = p_en if config.shares_prompt else prompt_tensor("prompts/P_de", config.effective_len_de)
        p_in = None
        if config.inner_rows > 0:
            p_in = prompt_tensor("prompts/P_in", config.inner_rows)
    return backbone, PromptSet(p_en, p_de, p_in, config)
