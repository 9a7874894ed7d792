"""Subcommand pipeline: vocab building, pseudo-data construction, prompt
pre-training, few-shot fine-tuning, generation, evaluation, attention probing,
and the ablation grid.

Each subcommand is declared once, in ``_COMMANDS``: its help, handler, flags
and outputs. Every run writes a manifest (command, resolved config, seeds,
the input files among its flags) into its output directory before doing any
work and rewrites it on exit with the finish time, duration, status and the
count of empty records skipped per dataset file; a command that saves trained
prompts adds which epoch's prompts it kept. A lock file holding the run's pid
makes one run own the directory at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from importlib import resources
from typing import Callable, NamedTuple

from . import __version__
from .corpus import (
    RESERVED_TOKENS,
    Dataset,
    Document,
    EmptyDocumentError,
    ParseError,
    SummaryPair,
    Vocab,
    atomic_open,
    build_vocab,
    detokenize,
    encode_document,
    load_dataset,
    load_vocab,
    read_lines,
    read_records,
    sample_fewshot,
    save_vocab,
    split_sentences,
    tokenize,
    truncate_document,
)
from .evaluation import evaluate, export_attention, generate_predictions, write_predictions
from .model import (
    STRATEGIES,
    ModelDims,
    PromptConfig,
    check_rows,
    compute_n_max,
    count_trainable_params,
    init_backbone,
    init_prompts,
    load_checkpoint,
    save_checkpoint,
)
from .pseudodata import (
    Rejection,
    build_gsg_pair,
    build_lead_pair,
    clean_summary_text,
    compute_filter_threshold,
    filter_pseudo,
)
from .training import MODES, TrainConfig, TrainingDivergedError, check_lengths, init_train_state, run_stage


class CliError(ValueError):
    pass


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def load_config_file(path) -> dict:
    """Parse 'key = value' lines; '#' starts a comment."""
    cfg: dict = {}
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        cfg[key.strip()] = _parse_value(value)
    return cfg


def shipped_defaults() -> dict:
    with resources.as_file(resources.files("promptsum") / "defaults.cfg") as path:
        return load_config_file(path)


# Keys read with ``cfg.get`` or ``in cfg`` that the shipped defaults leave
# unset; every other key takes its type from its default.
_OPTIONAL_KEY_TYPES = {
    "mode": str, "backbone_seed": int, "pretrain_warmup_steps": int, "finetune_warmup_ratio": float
}

# The training settings each stage has its own keys for: ``--epochs`` sets
# ``pretrain_epochs`` or ``finetune_epochs``, by the command's stage.
_STAGE_KEYS = ("epochs", "peak_lr", "warmup_steps", "warmup_ratio")


def resolve_config(args, command: _Command) -> dict:
    """Shipped defaults, then the ``--config`` file, then the flags and the mode the command
    fixes. The manifest records the result: the settings the run uses."""
    cfg = shipped_defaults()
    types = {key: type(value) for key, value in cfg.items()} | _OPTIONAL_KEY_TYPES
    if getattr(args, "config", None):
        overlay = load_config_file(args.config)
        for key, value in overlay.items():
            want = types.get(key)
            if want is None:
                raise CliError(f"{args.config}: unknown key {key}")
            # An int is a valid float; a bool is not an int here.
            if type(value) is not want and not (want is float and type(value) is int):
                raise CliError(f"{args.config}: {key} must be {want.__name__}, got {value!r}")
            _check_seed(key, value, f"{args.config}: {key}")
        _overlay(cfg, overlay, {key: key for key in overlay}, f"{args.config}: ")
    flags = {"mode": command.mode} if command.mode else {}
    names = {}
    for dest, value in vars(args).items():
        key = f"{command.stage}_{dest}" if dest in _STAGE_KEYS else dest
        if key in types and value is not None:
            flags[key], names[key] = value, "--" + dest.replace("_", "-")
            _check_seed(key, value, names[key])
    _overlay(cfg, flags, names)
    return cfg


def _overlay(cfg: dict, layer: dict, names: dict, where: str = "") -> None:
    """``layer`` over ``cfg``; ``names`` gives the name of each of its keys in the config
    file or on the command line. A layer that sets one of a stage's warmup keys drops
    the other from the layers below."""
    for stage in ("pretrain", "finetune"):
        warmup = (f"{stage}_warmup_steps", f"{stage}_warmup_ratio")
        if all(key in layer for key in warmup):
            raise CliError(f"{where}give one of {names[warmup[0]]} and {names[warmup[1]]}, not both")
        if any(key in layer for key in warmup):
            for key in warmup:
                cfg.pop(key, None)
    cfg.update(layer)


def _check_seed(key: str, value, source: str) -> None:
    """NumPy seeds must be >= 0; ``source`` names the flag or config key."""
    if key in ("seed", "backbone_seed") and value < 0:
        raise CliError(f"{source} must be >= 0, got {value}")


# --------------------------------------------------------------------------
# run bookkeeping
# --------------------------------------------------------------------------


def _stale_lock_pid(lock: str) -> int | None:
    """The pid written in ``lock`` when no process with that pid is running."""
    try:
        with open(lock, encoding="utf-8") as fh:
            pid = int(fh.read())
        if pid < 1:
            return None
        os.kill(pid, 0)
    except ProcessLookupError:
        return pid
    except (OSError, ValueError, OverflowError):
        pass  # unreadable, not a pid, or a live process of another user
    return None


def _write_json(path, payload, sort_keys: bool = False) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


@contextmanager
def _run(out_dir, command: str, cfg: dict, inputs: dict, outputs: list[str], argv: list[str]):
    """Own ``out_dir`` for one run and keep its manifest; yields the manifest, for the
    handler to add to before it is rewritten on exit."""
    os.makedirs(out_dir, exist_ok=True)
    lock = os.path.join(out_dir, ".lock")
    try:
        fd = open(lock, "x", encoding="utf-8")
    except FileExistsError:
        pid = _stale_lock_pid(lock)
        if pid is not None:
            raise CliError(
                f"output directory {out_dir} has a stale lock: run {pid} is not running; "
                f"remove {lock} to reuse the directory"
            ) from None
        raise CliError(f"output directory {out_dir} is locked by another run") from None
    try:
        fd.write(f"{os.getpid()}\n")
        fd.flush()
        started = time.perf_counter()
        path = os.path.join(out_dir, "manifest.json")
        manifest = {
            "command": command,
            "argv": argv,
            "config": cfg,
            "inputs": inputs,
            "outputs": outputs,
            "n_skipped": {},
            "version": __version__,
            "started_utc": datetime.now(timezone.utc).isoformat(),
        }
        _write_json(path, manifest, sort_keys=True)
        manifest.update(status="ok", error=None)
        try:
            yield manifest
        except BaseException as exc:
            manifest.update(status="error", error=str(exc) or type(exc).__name__)
            raise
        finally:
            manifest["finished_utc"] = datetime.now(timezone.utc).isoformat()
            manifest["duration_s"] = time.perf_counter() - started
            _write_json(path, manifest, sort_keys=True)
    finally:
        fd.close()
        os.unlink(lock)


def _write_train_log(out_dir, history: list[dict]) -> None:
    write_predictions(os.path.join(out_dir, "train_log.jsonl"), history)  # any rows, one JSON line each


def _load(args, flag: str, vocab: Vocab, cfg: dict, run: dict) -> Dataset:
    """The dataset named by ``--<flag>``; its skipped-record count goes to the manifest."""
    data = load_dataset(getattr(args, flag), vocab, cfg["max_src_tokens"])
    run["n_skipped"][flag] = data.skipped
    return data


def _check_vocab(backbone, vocab: Vocab, source: str) -> None:
    if backbone.dims.vocab != len(vocab):
        raise CliError(
            f"{source} was built for a {backbone.dims.vocab}-token vocabulary, "
            f"but the vocab file has {len(vocab)} tokens"
        )


def _load_checkpoint(args):
    """``(backbone, prompts, vocab)`` from ``--checkpoint`` and ``--vocab``, of one vocabulary size."""
    backbone, prompts = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    _check_vocab(backbone, vocab, args.checkpoint)
    return backbone, prompts, vocab


def _backbone_from_args(args, cfg: dict, vocab: Vocab):
    if args.backbone:
        backbone, _ = load_checkpoint(args.backbone)
        _check_vocab(backbone, vocab, args.backbone)
        return backbone
    dims = replace(args.dims, vocab=len(vocab))  # args.dims: built by dispatch, before the run
    return init_backbone(dims, cfg.get("backbone_seed", cfg["seed"]))


def _prompt_config(cfg: dict, docs: list[Document]) -> PromptConfig:
    strategy = cfg["strategy"]
    n_max = cfg["n_max"]
    if n_max < 1 and strategy in ("sequential", "fixed_k"):
        unit = "sentence" if strategy == "sequential" else "span_k"
        n_max = compute_n_max(docs, percentile=cfg["percentile"], unit=unit, k=cfg["k"])
    return PromptConfig(
        len_en=cfg["prompt_len_en"],
        len_de=cfg["prompt_len_de"],
        strategy=strategy,
        k=cfg["k"],
        n_max=max(1, n_max),
        shared=cfg["shared"],
    )


def _check_prompt_settings(cfg: dict, every_variant: bool) -> None:
    """The checks of ``compute_n_max`` and ``PromptConfig`` that need no corpus,
    with their messages. ``every_variant``: ablate trains fixed_k, sequential
    and shared variants whatever ``strategy`` and ``shared`` say."""
    len_en, len_de, k = cfg["prompt_len_en"], cfg["prompt_len_de"], cfg["k"]
    fixed_k = every_variant or cfg["strategy"] == "fixed_k"
    derived = cfg["n_max"] < 1 and (fixed_k or cfg["strategy"] == "sequential")  # by compute_n_max
    if fixed_k and k < 1:
        raise CliError(f"span length k must be >= 1, got {k}" if derived else "fixed_k requires k >= 1")
    if derived and not 0.0 < cfg["percentile"] <= 1.0:
        raise CliError("percentile must be in (0, 1]")
    if len_en < 0 or len_de < 0:
        raise CliError("prompt lengths must be >= 0")
    if len_en != len_de and (every_variant or cfg["shared"]):
        raise CliError("shared prompts require len_en == len_de")


def _train_config(cfg: dict, stage: str) -> TrainConfig:
    """The stage's settings; ``resolve_config`` leaves one of its two warmup keys."""
    stage_keys = {key: cfg.get(f"{stage}_{key}") for key in _STAGE_KEYS}
    shared = {key: cfg[key] for key in ("batch", "grad_accum", "beta1", "beta2", "seed")}
    return TrainConfig(mode=cfg.get("mode", "prompt_only"), **stage_keys, **shared)


def _used(pool: list, chosen) -> list[tuple[int, SummaryPair]]:
    """(index in ``pool``, pair) for each pair of ``pool`` that is one of ``chosen``."""
    ids = {id(pair) for pair in chosen}
    return [(i, pair) for i, pair in enumerate(pool) if id(pair) in ids]


def _train(args, prompts, backbone, train: list, dev: list):
    tc = args.train_config  # built by dispatch, before the run
    return run_stage(train, dev, init_train_state(prompts, backbone, tc), backbone, tc)


def _save_trained(args, backbone, state, what: str, run: dict) -> None:
    save_checkpoint(os.path.join(args.out, "checkpoint.npz"), backbone, state.prompts)
    _write_train_log(args.out, state.loss_history)
    run["selected"] = state.selected
    print(f"{what}: {state.step} steps")


def _render_document(doc: Document, vocab: Vocab) -> str:
    """Sentence-wise detokenization with a leading capital per sentence, so the
    sentence splitter recovers the boundaries on reload."""
    pieces = []
    for sent in doc.sentences:
        text = detokenize(sent, vocab)
        for i, ch in enumerate(text):
            if ch.isalpha():
                text = text[:i] + ch.upper() + text[i + 1 :]
                break
        pieces.append(text)
    return " ".join(pieces)


# --------------------------------------------------------------------------
# subcommands: handler(parsed flags, resolved config, manifest)
# --------------------------------------------------------------------------


def cmd_build_vocab(args, cfg: dict, run: dict) -> None:
    texts = []
    for _, record in read_records(args.data):
        texts.append(str(record.get("document", "")))
        texts.append(str(record.get("summary", "")))
    vocab = build_vocab(texts, min_freq=args.min_freq)
    save_vocab(vocab, os.path.join(args.out, "vocab.txt"))
    print(f"vocab: {len(vocab)} tokens")


def cmd_build_pseudo(args, cfg: dict, run: dict) -> None:
    vocab = load_vocab(args.vocab)
    texts = []
    for lineno, record in read_records(args.data):
        if "document" not in record:
            raise ParseError(f"{args.data}: line {lineno}: record must have 'document'")
        texts.append(str(record["document"]))
    pairs = []
    rejected: dict[str, int] = {}
    unreadable = 0
    for text in texts:
        try:
            if args.pseudo_strategy == "lead":
                doc = _lead_document(text, vocab, cfg)
                result = build_lead_pair(
                    doc, lead_n=cfg["lead_n"], min_sum=cfg["min_sum"], target_sum=cfg["target_sum"]
                )
            else:
                doc = truncate_document(encode_document(text, vocab), cfg["max_src_tokens"])
                result = build_gsg_pair(doc, m=cfg["gsg_m"])
        except EmptyDocumentError:
            unreadable += 1
            continue
        if isinstance(result, Rejection):
            rejected[result.reason] = rejected.get(result.reason, 0) + 1
        else:
            pairs.append(result)

    stats = {
        "n_records": len(texts),
        "n_unreadable": unreadable,
        "n_built": len(pairs),
        "rejections": rejected,
        "threshold": None,
        "n_fewshot_skipped": None,
        "n_output": len(pairs),
    }
    if args.fewshot:
        fewshot = _load(args, "fewshot", vocab, cfg, run)
        threshold = compute_filter_threshold(fewshot)
        pairs = filter_pseudo(pairs, threshold)
        stats["threshold"] = {
            "epsilon": threshold.epsilon,
            "sigma2": threshold.sigma2,
            "value": threshold.threshold,
        }
        stats["n_fewshot_skipped"] = fewshot.skipped
        stats["n_output"] = len(pairs)

    with atomic_open(os.path.join(args.out, "pseudo.jsonl")) as fh:
        for pair in pairs:
            record = {
                "document": _render_document(pair.document, vocab),
                "summary": detokenize(pair.summary_content, vocab),
            }
            fh.write(json.dumps(record) + "\n")
    _write_json(os.path.join(args.out, "stats.json"), stats)
    print(f"pseudo pairs: {stats['n_output']} (built {stats['n_built']} of {len(texts)})")


def _lead_document(text: str, vocab: Vocab, cfg: dict) -> Document:
    """Sentence-split, clean the lead sentences, tokenize, truncate."""
    sentences = split_sentences(text)
    cleaned = [clean_summary_text(s) if i < cfg["lead_n"] else s for i, s in enumerate(sentences)]
    # A lead sentence that is all byline cleans to nothing and is dropped; a
    # document left with no sentence raises EmptyDocumentError in Document.
    token_sents = [tuple(tokenize(s, vocab)) for s in cleaned]
    token_sents = [s for s in token_sents if s]
    return truncate_document(Document(tuple(token_sents)), cfg["max_src_tokens"])


def cmd_pretrain_backbone(args, cfg: dict, run: dict) -> None:
    vocab = load_vocab(args.vocab)
    data = _load(args, "data", vocab, cfg, run)
    backbone = _backbone_from_args(args, cfg, vocab)
    config = PromptConfig(len_en=0, len_de=0, strategy="none")
    check_lengths(enumerate(data), config, backbone.dims.max_pos, "--data")
    prompts = init_prompts(config, backbone, cfg["seed"])
    state = _train(args, prompts, backbone, data, [])
    _save_trained(args, backbone, state, "pretrained backbone", run)


def cmd_pretrain_prompts(args, cfg: dict, run: dict) -> None:
    vocab = load_vocab(args.vocab)
    data = _load(args, "data", vocab, cfg, run)
    dev = _load(args, "dev", vocab, cfg, run) if args.dev else []
    backbone = _backbone_from_args(args, cfg, vocab)
    config = _prompt_config(cfg, [p.document for p in data])
    check_lengths(enumerate(data), config, backbone.dims.max_pos, "--data")
    check_lengths(enumerate(dev), config, backbone.dims.max_pos, "--dev")
    prompts = init_prompts(config, backbone, cfg["seed"])
    state = _train(args, prompts, backbone, data, dev)
    _save_trained(args, backbone, state, "pretrained prompts", run)


def cmd_finetune(args, cfg: dict, run: dict) -> None:
    backbone, prompts, vocab = _load_checkpoint(args)
    max_pos = backbone.dims.max_pos
    if args.train:
        train = _load(args, "train", vocab, cfg, run)
        dev = _load(args, "dev", vocab, cfg, run) if args.dev else []
        check_lengths(enumerate(train), prompts.config, max_pos, "--train")
        check_lengths(enumerate(dev), prompts.config, max_pos, "--dev")
    else:  # dispatch has checked that --data is given
        pairs = _load(args, "data", vocab, cfg, run)
        split = sample_fewshot(pairs, cfg["fewshot_size"], cfg["seed"])
        train, dev = list(split.train), list(split.dev)
        check_lengths(_used(pairs, train + dev), prompts.config, max_pos, "--data")
    state = _train(args, prompts, backbone, train, dev)
    _save_trained(args, backbone, state, "finetuned", run)


def cmd_generate(args, cfg: dict, run: dict) -> None:
    backbone, prompts, vocab = _load_checkpoint(args)
    test = _load(args, "data", vocab, cfg, run)
    records = generate_predictions(
        backbone, prompts, prompts.config, test, cfg["beam"], cfg["max_len"], vocab=vocab
    )
    write_predictions(os.path.join(args.out, "predictions.jsonl"), records)
    print(f"generated {len(records)} summaries")


def cmd_evaluate(args, cfg: dict, run: dict) -> None:
    """``evaluate`` and ``zero-shot``: ROUGE and perplexity of a checkpoint."""
    backbone, prompts, vocab = _load_checkpoint(args)
    test = _load(args, "data", vocab, cfg, run)
    report, records = evaluate(
        backbone, prompts, prompts.config, test, cfg["beam"], cfg["max_len"], vocab=vocab
    )
    write_predictions(os.path.join(args.out, "predictions.jsonl"), records)
    payload = {
        "r1_f1": report.r1_f1,
        "r2_f1": report.r2_f1,
        "rl_f1": report.rl_f1,
        "ppl": report.ppl,
        "n_examples": report.n_examples,
        "n_skipped": test.skipped,
        "fingerprint": report.fingerprint,
    }
    _write_json(os.path.join(args.out, "report.json"), payload)
    print(
        f"r1={report.r1_f1:.4f} r2={report.r2_f1:.4f} rl={report.rl_f1:.4f} "
        f"ppl={report.ppl:.2f} n={report.n_examples}"
    )


def cmd_probe_attention(args, cfg: dict, run: dict) -> None:
    backbone, prompts, vocab = _load_checkpoint(args)
    test = _load(args, "data", vocab, cfg, run)
    if not 0 <= args.index < len(test):
        raise CliError(f"--index {args.index} out of range (0..{len(test) - 1})")
    pair = test[args.index]
    # The probe's prefix is the whole summary, EOS included: one decoder row more than training.
    check_rows(
        prompts.config, backbone.dims.max_pos, source=pair.document.flat_length,
        targets=len(pair.summary) + 1, where=f"--index {args.index}: ",
    )
    record = export_attention(backbone, prompts, prompts.config, pair, os.path.join(args.out, "attention.txt"))
    print(f"attention matrix: {record.matrix.shape[0]} x {record.matrix.shape[1]}")


_ABLATION_VARIANTS = (
    ("placement=encoder_only", {"strategy": "none", "encoder_only": True}),
    ("placement=decoder_only", {"strategy": "none", "decoder_only": True}),
    ("placement=both", {"strategy": "none"}),
    ("shared", {"strategy": "none", "shared": True}),
    ("strategy=none", {"strategy": "none"}),
    ("strategy=interval", {"strategy": "interval"}),
    ("strategy=sequential", {"strategy": "sequential"}),
    ("strategy=fixed_k", {"strategy": "fixed_k"}),
)


def cmd_ablate(args, cfg: dict, run: dict) -> None:
    vocab = load_vocab(args.vocab)
    pairs = _load(args, "data", vocab, cfg, run)
    split = sample_fewshot(pairs, cfg["fewshot_size"], cfg["seed"])
    backbone = _backbone_from_args(args, cfg, vocab)
    train_docs = [p.document for p in split.train]

    k_sweep = tuple((f"fixed_k k={k}", {"strategy": "fixed_k", "k": k}) for k in args.k_grid or ())
    placed = dict.fromkeys(("shared", "encoder_only", "decoder_only"), False)
    variants = [
        (name, replace(_prompt_config({**cfg, **overrides}, train_docs), **{**placed, **overrides}))
        for name, overrides in _ABLATION_VARIANTS + k_sweep
    ]
    used = _used(pairs, split.train + split.dev)
    for _, config in variants:
        check_lengths(used, config, backbone.dims.max_pos, "--data")
        check_rows(config, backbone.dims.max_pos, targets=cfg["max_len"], where=f"max_len {cfg['max_len']}: ")

    # Variants of one prompt config (placement=both and strategy=none; a k-grid value
    # equal to k) train once, each from the backbone as built: full_model tunes it.
    reports = {}
    rows = []
    for name, config in variants:
        if config not in reports:
            backbone = _backbone_from_args(args, cfg, vocab)
            prompts = init_prompts(config, backbone, cfg["seed"])
            state = _train(args, prompts, backbone, list(split.train), list(split.dev))
            reports[config], _ = evaluate(
                backbone, state.prompts, config, list(split.dev), cfg["beam"], cfg["max_len"]
            )
        report = reports[config]
        rows.append({
            "variant": name, "r1_f1": report.r1_f1, "r2_f1": report.r2_f1, "rl_f1": report.rl_f1,
            "trainable_params": count_trainable_params(
                config, backbone.dims.d, cfg.get("mode", "prompt_only"), backbone
            ),
        })
        print(f"{name}: r1={report.r1_f1:.4f}")

    with atomic_open(os.path.join(args.out, "ablation.tsv")) as fh:
        fh.write("variant\tr1_f1\tr2_f1\trl_f1\ttrainable_params\n")
        for row in rows:
            fh.write(
                f"{row['variant']}\t{row['r1_f1']:.6f}\t{row['r2_f1']:.6f}\t"
                f"{row['rl_f1']:.6f}\t{row['trainable_params']}\n"
            )
    _write_json(os.path.join(args.out, "ablation.json"), rows)


# --------------------------------------------------------------------------
# command table and parser
# --------------------------------------------------------------------------


def _flag(name: str, **kwargs) -> tuple[str, dict]:
    """One flag: its name and its ``add_argument`` keywords."""
    return name, kwargs


# Flag groups, in help order. A flag whose dest is a config key overlays
# that key when given (see ``resolve_config``).
_COMMON_FLAGS = (
    _flag("--config", help="key = value config file"),
    _flag("--seed", type=int),
    _flag("--out", required=True, help="output directory"),
)
_VOCAB_FLAGS = (_flag("--vocab", required=True, help="vocab file"), _flag("--max-src-tokens", type=int))
_MODEL_FLAGS = (
    _flag("--d", type=int),
    _flag("--layers", type=int),
    _flag("--heads", type=int),
    _flag("--ffn", type=int),
    _flag("--max-pos", type=int),
    _flag("--backbone", help="checkpoint to take the backbone from"),
    _flag("--backbone-seed", type=int),
)
_PROMPT_FLAGS = (
    _flag("--prompt-len-en", type=int),
    _flag("--prompt-len-de", type=int),
    _flag("--strategy", choices=STRATEGIES),
    _flag("--k", type=int),
    _flag("--n-max", type=int),
    _flag("--shared", action=argparse.BooleanOptionalAction, default=None),
    _flag("--percentile", type=float),
)
_MODE = _flag("--mode", choices=MODES)
_TRAIN_FLAGS = (
    _flag("--epochs", type=int),
    _flag("--peak-lr", type=float),
    _flag("--warmup-steps", type=int),
    _flag("--warmup-ratio", type=float),
    _flag("--batch", type=int),
    _flag("--grad-accum", type=int),
)
_DECODE_FLAGS = (_flag("--beam", type=int), _flag("--max-len", type=int))
_DATA = _flag("--data", required=True)
_CHECKPOINT = _flag("--checkpoint", required=True)
_FEWSHOT_SIZE = _flag("--fewshot-size", type=int)


class _Command(NamedTuple):
    help: str
    handler: Callable[[argparse.Namespace, dict, dict], None]
    outputs: tuple[str, ...]  # files the run writes into --out
    flags: tuple  # after the common flags, in help order
    mode: str | None = None  # training mode the command fixes in the config
    stage: str | None = None  # the stage of its training keys


# Dests of the flags that name an input file; the manifest records every
# one that the command declares, given or not.
_INPUTS = ("data", "vocab", "backbone", "checkpoint", "train", "dev", "fewshot")
_TRAINED = ("checkpoint.npz", "train_log.jsonl")
_EVALUATED = ("report.json", "predictions.jsonl")
_K_GRID = _flag("--k-grid", type=lambda s: [int(v) for v in s.split(",")], default=None)

_COMMANDS = {
    "build-vocab": _Command(
        "build a vocabulary from a dataset file", cmd_build_vocab, ("vocab.txt",),
        (_DATA, _flag("--min-freq", type=int, default=1)),
    ),
    "build-pseudo": _Command(
        "construct pseudo summary pairs", cmd_build_pseudo, ("pseudo.jsonl", "stats.json"),
        (
            *_VOCAB_FLAGS,
            _DATA,
            _flag("--strategy", dest="pseudo_strategy", choices=["lead", "gsg"], required=True),
            _flag("--m", dest="gsg_m", metavar="M", type=int, help="sentences removed per document (gsg)"),
            _flag("--lead-n", type=int),
            _flag("--min-sum", type=int),
            _flag("--target-sum", type=int),
            _flag("--fewshot", help="few-shot file; when given, pairs under its threshold are dropped"),
        ),
    ),
    "pretrain-backbone": _Command(
        "full-model training of the toy backbone", cmd_pretrain_backbone, _TRAINED,
        (*_VOCAB_FLAGS, *_MODEL_FLAGS, *_TRAIN_FLAGS, _DATA),
        mode="full_model", stage="pretrain",
    ),
    "pretrain-prompts": _Command(
        "prompt-only training on pseudo pairs", cmd_pretrain_prompts, _TRAINED,
        (*_VOCAB_FLAGS, *_MODEL_FLAGS, *_PROMPT_FLAGS, *_TRAIN_FLAGS, _DATA, _flag("--dev")),
        mode="prompt_only", stage="pretrain",
    ),
    "finetune": _Command(
        "few-shot tuning from a checkpoint", cmd_finetune, _TRAINED,
        (*_VOCAB_FLAGS, _MODE, *_TRAIN_FLAGS, _CHECKPOINT, _flag("--data"), _FEWSHOT_SIZE, _flag("--train"), _flag("--dev")),
        stage="finetune",
    ),
    "generate": _Command(
        "decode summaries for a dataset", cmd_generate, ("predictions.jsonl",),
        (*_VOCAB_FLAGS, *_DECODE_FLAGS, _CHECKPOINT, _DATA),
    ),
    "evaluate": _Command(
        "ROUGE + perplexity report", cmd_evaluate, _EVALUATED,
        (*_VOCAB_FLAGS, *_DECODE_FLAGS, _CHECKPOINT, _DATA),
    ),
    "zero-shot": _Command(
        "evaluate pretrained prompts without finetuning", cmd_evaluate, _EVALUATED,
        (*_VOCAB_FLAGS, *_DECODE_FLAGS, _CHECKPOINT, _DATA),
    ),
    "probe-attention": _Command(
        "export a cross-attention matrix", cmd_probe_attention, ("attention.txt",),
        (*_VOCAB_FLAGS, _CHECKPOINT, _DATA, _flag("--index", type=int, default=0)),
    ),
    "ablate": _Command(
        "prompt placement / strategy comparison grid", cmd_ablate, ("ablation.tsv", "ablation.json"),
        (*_VOCAB_FLAGS, *_MODEL_FLAGS, *_PROMPT_FLAGS, _MODE, *_TRAIN_FLAGS, *_DECODE_FLAGS, _DATA, _FEWSHOT_SIZE, _K_GRID),
        stage="finetune",
    ),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors raise ``CliError``: one ``error:`` line and exit code 1, like any failure."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="promptsum")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flag, kwargs in _COMMON_FLAGS + command.flags:
            sub.add_argument(flag, **kwargs)
    return parser


def dispatch(argv=None) -> int:
    """Parse and run one subcommand; every failure is a single-line error."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
        command = _COMMANDS[args.command]
        cfg = resolve_config(args, command)
        # Every check that needs no data or model work comes before --out is created.
        inputs = {dest: getattr(args, dest) for dest in _INPUTS if hasattr(args, dest)}
        for dest, path in inputs.items():
            if path is not None and not os.path.exists(path):
                raise CliError(f"--{dest} {path}: no such file")
        if args.command == "finetune":
            if args.data is None and args.train is None:
                raise CliError("provide --data (with --fewshot-size) or --train/--dev")
            if args.data is not None and (args.train is not None or args.dev is not None):
                raise CliError("give --data or --train/--dev, not both")
        for key in ("beam", "max_len", "max_src_tokens"):
            if hasattr(args, key) and cfg[key] < 1:
                raise CliError(f"{key} must be >= 1, got {cfg[key]}")
        if hasattr(args, "fewshot_size") and args.data is not None and cfg["fewshot_size"] < 1:
            raise CliError(f"few-shot size must be >= 1, got {cfg['fewshot_size']}")
        for k in getattr(args, "k_grid", None) or ():
            if k < 1:
                raise CliError(f"--k-grid values must be >= 1, got {k}")
        if hasattr(args, "prompt_len_en"):
            _check_prompt_settings(cfg, every_variant=args.command == "ablate")
        if hasattr(args, "backbone") and args.backbone is None:  # the model is built from flags
            sizes = {key: cfg[key] for key in ("d", "layers", "heads", "ffn", "max_pos")}
            args.dims = ModelDims(vocab=len(RESERVED_TOKENS) + 1, **sizes)  # vocab: a stand-in until the file is read
            if hasattr(args, "prompt_len_en"):  # a source and a target token must fit after the prompts
                lengths = PromptConfig(cfg["prompt_len_en"], cfg["prompt_len_de"], strategy="none")
                check_rows(lengths, args.dims.max_pos, source=1, targets=1, where="prompt lengths: ")
        strategy = getattr(args, "pseudo_strategy", None)
        if strategy == "lead" and cfg["lead_n"] < 1:
            raise CliError(f"lead_n must be >= 1, got {cfg['lead_n']}")
        if strategy == "gsg" and cfg["gsg_m"] < 1:
            raise CliError(f"gap-sentence count m must be >= 1, got {cfg['gsg_m']}")
        if command.stage:
            args.train_config = _train_config(cfg, command.stage)
        with _run(args.out, args.command, cfg, inputs, list(command.outputs), argv) as run:
            command.handler(args, cfg, run)
    except SystemExit as exc:  # --help; argument errors raise CliError instead
        return int(exc.code) if exc.code else 0
    # CliError and the corpus, config and checkpoint errors are all ValueErrors.
    except (ValueError, OSError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy's names the allocation that failed
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
