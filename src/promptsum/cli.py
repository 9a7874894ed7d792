"""Subcommand pipeline: vocab building, pseudo-data construction, prompt
pre-training, few-shot fine-tuning, generation, evaluation, attention probing,
and the ablation grid.

Every run writes a manifest (command, resolved config, seeds, paths) into its
output directory before doing any work, and holds a lock file so one run owns
the directory at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from importlib import resources

from . import __version__
from .corpus import (
    CorpusError,
    Document,
    EmptyDocumentError,
    ParseError,
    Vocab,
    build_vocab,
    detokenize,
    encode_document,
    load_dataset,
    load_vocab,
    read_records,
    sample_fewshot,
    save_vocab,
    split_sentences,
    tokenize,
    truncate_document,
)
from .evaluation import (
    evaluate,
    evaluate_rouge,
    export_attention,
    generate_predictions,
    write_predictions,
)
from .model import (
    CheckpointError,
    ConfigError,
    ModelDims,
    PromptConfig,
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
from .training import TrainConfig, TrainingDivergedError, init_train_state, run_stage


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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = _parse_value(value)
    return cfg


def shipped_defaults() -> dict:
    with resources.files("promptsum").joinpath("defaults.cfg").open("r") as fh:
        text = fh.read()
    cfg: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line and "=" in line:
            key, value = line.split("=", 1)
            cfg[key.strip()] = _parse_value(value)
    return cfg


# Flags that overlay config-file keys when given on the command line.
_FLAG_KEYS = (
    ("d", "d"),
    ("layers", "layers"),
    ("heads", "heads"),
    ("ffn", "ffn"),
    ("max_pos", "max_pos"),
    ("prompt_len_en", "prompt_len_en"),
    ("prompt_len_de", "prompt_len_de"),
    ("strategy", "strategy"),
    ("k", "k"),
    ("n_max", "n_max"),
    ("shared", "shared"),
    ("percentile", "percentile"),
    ("max_src_tokens", "max_src_tokens"),
    ("lead_n", "lead_n"),
    ("min_sum", "min_sum"),
    ("target_sum", "target_sum"),
    ("m", "gsg_m"),
    ("fewshot_size", "fewshot_size"),
    ("batch", "batch"),
    ("grad_accum", "grad_accum"),
    ("beam", "beam"),
    ("max_len", "max_len"),
    ("seed", "seed"),
    ("backbone_seed", "backbone_seed"),
    ("mode", "mode"),
)


def resolve_config(args) -> dict:
    cfg = shipped_defaults()
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for attr, key in _FLAG_KEYS:
        value = getattr(args, attr, None)
        if value is not None:
            cfg[key] = value
    return cfg


# --------------------------------------------------------------------------
# run bookkeeping
# --------------------------------------------------------------------------


@contextmanager
def _run(out_dir, command: str, cfg: dict, inputs: dict, outputs: list[str], argv=None):
    os.makedirs(out_dir, exist_ok=True)
    lock = os.path.join(out_dir, ".lock")
    try:
        fd = open(lock, "x")
    except FileExistsError:
        raise CliError(f"output directory {out_dir} is locked by another run") from None
    try:
        manifest = {
            "command": command,
            "argv": list(argv) if argv is not None else None,
            "config": cfg,
            "inputs": inputs,
            "outputs": outputs,
            "version": __version__,
            "started_utc": datetime.now(timezone.utc).isoformat(),
        }
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        yield
    finally:
        fd.close()
        os.unlink(lock)


def _write_train_log(out_dir, history: list[dict]) -> None:
    with open(os.path.join(out_dir, "train_log.jsonl"), "w", encoding="utf-8") as fh:
        for entry in history:
            fh.write(json.dumps(entry) + "\n")


def _read_documents(path) -> list[str]:
    texts = []
    for lineno, record in read_records(path):
        if "document" not in record:
            raise ParseError(f"{path}: line {lineno}: record must have 'document'")
        texts.append(str(record["document"]))
    return texts


def _dims(cfg: dict, vocab: Vocab) -> ModelDims:
    return ModelDims(
        d=cfg["d"],
        layers=cfg["layers"],
        heads=cfg["heads"],
        ffn=cfg["ffn"],
        vocab=len(vocab),
        max_pos=cfg["max_pos"],
    )


def _check_vocab(backbone, vocab: Vocab, source: str) -> None:
    if backbone.dims.vocab != len(vocab):
        raise CliError(
            f"{source} was built for a {backbone.dims.vocab}-token vocabulary, "
            f"but the vocab file has {len(vocab)} tokens"
        )


def _backbone_from_args(args, cfg: dict, vocab: Vocab):
    if getattr(args, "backbone", None):
        backbone, _ = load_checkpoint(args.backbone)
        _check_vocab(backbone, vocab, args.backbone)
        return backbone
    seed = args.backbone_seed if getattr(args, "backbone_seed", None) is not None else cfg["seed"]
    return init_backbone(_dims(cfg, vocab), seed)


def _prompt_config(cfg: dict, docs: list[Document] | None) -> PromptConfig:
    strategy = cfg["strategy"]
    n_max = cfg.get("n_max") or 0
    if n_max < 1 and strategy in ("sequential", "fixed_k"):
        if not docs:
            raise CliError("n_max not set and no documents to derive it from")
        unit = "sentence" if strategy == "sequential" else "span_k"
        n_max = compute_n_max(docs, percentile=cfg["percentile"], unit=unit, k=cfg["k"])
    return PromptConfig(
        len_en=cfg["prompt_len_en"],
        len_de=cfg["prompt_len_de"],
        strategy=strategy,
        k=cfg["k"],
        n_max=max(1, n_max),
        shared=bool(cfg.get("shared", False)),
    )


def _train_config(cfg: dict, args, stage: str) -> TrainConfig:
    peak = args.peak_lr if args.peak_lr is not None else cfg[f"{stage}_peak_lr"]
    epochs = args.epochs if args.epochs is not None else cfg[f"{stage}_epochs"]
    if args.warmup_steps is not None:
        warmup_steps, warmup_ratio = args.warmup_steps, None
    elif args.warmup_ratio is not None:
        warmup_steps, warmup_ratio = None, args.warmup_ratio
    elif f"{stage}_warmup_steps" in cfg:
        warmup_steps, warmup_ratio = cfg[f"{stage}_warmup_steps"], None
    else:
        warmup_steps, warmup_ratio = None, cfg[f"{stage}_warmup_ratio"]
    return TrainConfig(
        mode=cfg.get("mode", "prompt_only"),
        peak_lr=peak,
        warmup_steps=warmup_steps,
        warmup_ratio=warmup_ratio,
        epochs=epochs,
        batch=cfg["batch"],
        grad_accum=cfg["grad_accum"],
        beta1=cfg["beta1"],
        beta2=cfg["beta2"],
        seed=cfg["seed"],
    )


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
# subcommands
# --------------------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    cfg = resolve_config(args)
    with _run(args.out, "build-vocab", cfg, {"data": args.data}, ["vocab.txt"], argv=args.argv):
        texts = []
        for _, record in read_records(args.data):
            texts.append(str(record.get("document", "")))
            texts.append(str(record.get("summary", "")))
        vocab = build_vocab(texts, min_freq=args.min_freq)
        save_vocab(vocab, os.path.join(args.out, "vocab.txt"))
        print(f"vocab: {len(vocab)} tokens")
    return 0


def cmd_build_pseudo(args) -> int:
    cfg = resolve_config(args)
    strategy = args.pseudo_strategy
    do_filter = args.filter if args.filter is not None else args.fewshot is not None
    if do_filter and not args.fewshot:
        raise CliError("--filter requires --fewshot for the threshold")
    outputs = ["pseudo.jsonl", "stats.json"]
    with _run(args.out, "build-pseudo", cfg, {"data": args.data, "fewshot": args.fewshot}, outputs, argv=args.argv):
        vocab = load_vocab(args.vocab)
        texts = _read_documents(args.data)
        pairs = []
        rejected: dict[str, int] = {}
        skipped = 0
        for text in texts:
            try:
                if strategy == "lead":
                    doc = _lead_document(text, vocab, cfg)
                    result = build_lead_pair(
                        doc, lead_n=cfg["lead_n"], min_sum=cfg["min_sum"], target_sum=cfg["target_sum"]
                    )
                else:
                    doc = truncate_document(encode_document(text, vocab), cfg["max_src_tokens"])
                    result = build_gsg_pair(doc, m=cfg["gsg_m"])
            except EmptyDocumentError:
                skipped += 1
                continue
            if isinstance(result, Rejection):
                rejected[result.reason] = rejected.get(result.reason, 0) + 1
            else:
                pairs.append(result)

        stats = {
            "n_records": len(texts),
            "n_unreadable": skipped,
            "n_built": len(pairs),
            "rejections": rejected,
            "threshold": None,
            "n_output": len(pairs),
        }
        if do_filter:
            fewshot = load_dataset(args.fewshot, vocab, cfg["max_src_tokens"])
            threshold = compute_filter_threshold(fewshot)
            pairs = filter_pseudo(pairs, threshold)
            stats["threshold"] = {
                "epsilon": threshold.epsilon,
                "sigma2": threshold.sigma2,
                "value": threshold.threshold,
            }
            stats["n_output"] = len(pairs)

        with open(os.path.join(args.out, "pseudo.jsonl"), "w", encoding="utf-8") as fh:
            for pair in pairs:
                record = {
                    "document": _render_document(pair.document, vocab),
                    "summary": detokenize(pair.summary_content, vocab),
                }
                fh.write(json.dumps(record) + "\n")
        with open(os.path.join(args.out, "stats.json"), "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
        print(f"pseudo pairs: {stats['n_output']} (built {stats['n_built']} of {len(texts)})")
    return 0


def _lead_document(text: str, vocab: Vocab, cfg: dict) -> Document:
    """Sentence-split, clean the lead sentences, tokenize, truncate."""
    sentences = split_sentences(text)
    lead_n = cfg["lead_n"]
    cleaned: list[str] = []
    for i, sent in enumerate(sentences):
        if i < lead_n:
            sent = clean_summary_text(sent)
            if not sent:
                continue
        cleaned.append(sent)
    token_sents = [tuple(tokenize(s, vocab)) for s in cleaned]
    token_sents = [s for s in token_sents if s]
    if not token_sents:
        raise EmptyDocumentError("document empty after cleaning")
    return truncate_document(Document(tuple(token_sents)), cfg["max_src_tokens"])


def cmd_pretrain_backbone(args) -> int:
    cfg = resolve_config(args)
    cfg["mode"] = "full_model"
    with _run(args.out, "pretrain-backbone", cfg, {"data": args.data}, ["checkpoint.npz", "train_log.jsonl"], argv=args.argv):
        vocab = load_vocab(args.vocab)
        data = load_dataset(args.data, vocab, cfg["max_src_tokens"])
        backbone = _backbone_from_args(args, cfg, vocab)
        config = PromptConfig(len_en=0, len_de=0, strategy="none")
        prompts = init_prompts(config, backbone, cfg["seed"])
        tc = _train_config(cfg, args, "pretrain")
        state = init_train_state(prompts, backbone, tc)
        state = run_stage("pretrain", data, [], state, backbone, tc)
        save_checkpoint(os.path.join(args.out, "checkpoint.npz"), backbone, prompts)
        _write_train_log(args.out, state.loss_history)
        print(f"pretrained backbone: {state.step} steps")
    return 0


def cmd_pretrain_prompts(args) -> int:
    cfg = resolve_config(args)
    cfg["mode"] = "prompt_only"
    with _run(args.out, "pretrain-prompts", cfg, {"data": args.data, "backbone": args.backbone}, ["checkpoint.npz", "train_log.jsonl"], argv=args.argv):
        vocab = load_vocab(args.vocab)
        data = load_dataset(args.data, vocab, cfg["max_src_tokens"])
        dev = load_dataset(args.dev, vocab, cfg["max_src_tokens"]) if args.dev else []
        backbone = _backbone_from_args(args, cfg, vocab)
        config = _prompt_config(cfg, [p.document for p in data])
        prompts = init_prompts(config, backbone, cfg["seed"])
        tc = _train_config(cfg, args, "pretrain")
        state = init_train_state(prompts, backbone, tc)
        state = run_stage("pretrain", data, dev, state, backbone, tc)
        save_checkpoint(os.path.join(args.out, "checkpoint.npz"), backbone, state.prompts)
        _write_train_log(args.out, state.loss_history)
        print(f"pretrained prompts: {state.step} steps")
    return 0


def cmd_finetune(args) -> int:
    cfg = resolve_config(args)
    with _run(args.out, "finetune", cfg, {"checkpoint": args.checkpoint, "data": args.data, "train": args.train, "dev": args.dev}, ["checkpoint.npz", "train_log.jsonl"], argv=args.argv):
        backbone, prompts = load_checkpoint(args.checkpoint)
        vocab = load_vocab(args.vocab)
        _check_vocab(backbone, vocab, args.checkpoint)
        if args.train:
            train = load_dataset(args.train, vocab, cfg["max_src_tokens"])
            dev = load_dataset(args.dev, vocab, cfg["max_src_tokens"]) if args.dev else []
        else:
            if not args.data:
                raise CliError("provide --data (with --fewshot-size) or --train/--dev")
            pairs = load_dataset(args.data, vocab, cfg["max_src_tokens"])
            split = sample_fewshot(pairs, cfg["fewshot_size"], cfg["seed"])
            train, dev = list(split.train), list(split.dev)
        tc = _train_config(cfg, args, "finetune")
        state = init_train_state(prompts, backbone, tc)
        state = run_stage("finetune", train, dev, state, backbone, tc)
        save_checkpoint(os.path.join(args.out, "checkpoint.npz"), backbone, state.prompts)
        _write_train_log(args.out, state.loss_history)
        print(f"finetuned: {state.step} steps")
    return 0


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    with _run(args.out, "generate", cfg, {"checkpoint": args.checkpoint, "data": args.data}, ["predictions.jsonl"], argv=args.argv):
        backbone, prompts = load_checkpoint(args.checkpoint)
        vocab = load_vocab(args.vocab)
        _check_vocab(backbone, vocab, args.checkpoint)
        test = load_dataset(args.data, vocab, cfg["max_src_tokens"])
        records = generate_predictions(
            backbone, prompts, prompts.config, test, cfg["beam"], cfg["max_len"], vocab=vocab
        )
        write_predictions(os.path.join(args.out, "predictions.jsonl"), records)
        print(f"generated {len(records)} summaries")
    return 0


def _evaluate_checkpoint(args, cfg: dict) -> int:
    backbone, prompts = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    _check_vocab(backbone, vocab, args.checkpoint)
    test = load_dataset(args.data, vocab, cfg["max_src_tokens"])
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
        "fingerprint": report.fingerprint,
    }
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"r1={report.r1_f1:.4f} r2={report.r2_f1:.4f} rl={report.rl_f1:.4f} "
        f"ppl={report.ppl:.2f} n={report.n_examples}"
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    with _run(args.out, "evaluate", cfg, {"checkpoint": args.checkpoint, "data": args.data}, ["report.json", "predictions.jsonl"], argv=args.argv):
        return _evaluate_checkpoint(args, cfg)


def cmd_zero_shot(args) -> int:
    cfg = resolve_config(args)
    if not os.path.exists(args.checkpoint):
        raise CliError(f"missing pretrained-prompts checkpoint: {args.checkpoint}")
    with _run(args.out, "zero-shot", cfg, {"checkpoint": args.checkpoint, "data": args.data}, ["report.json", "predictions.jsonl"], argv=args.argv):
        return _evaluate_checkpoint(args, cfg)


def cmd_probe_attention(args) -> int:
    cfg = resolve_config(args)
    with _run(args.out, "probe-attention", cfg, {"checkpoint": args.checkpoint, "data": args.data}, ["attention.txt"], argv=args.argv):
        backbone, prompts = load_checkpoint(args.checkpoint)
        vocab = load_vocab(args.vocab)
        _check_vocab(backbone, vocab, args.checkpoint)
        test = load_dataset(args.data, vocab, cfg["max_src_tokens"])
        if not 0 <= args.index < len(test):
            raise CliError(f"--index {args.index} out of range (0..{len(test) - 1})")
        record = export_attention(
            backbone, prompts, prompts.config, test[args.index], os.path.join(args.out, "attention.txt")
        )
        print(f"attention matrix: {record.matrix.shape[0]} x {record.matrix.shape[1]}")
    return 0


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


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    outputs = ["ablation.tsv", "ablation.json"]
    with _run(args.out, "ablate", cfg, {"data": args.data}, outputs, argv=args.argv):
        vocab = load_vocab(args.vocab)
        pairs = load_dataset(args.data, vocab, cfg["max_src_tokens"])
        split = sample_fewshot(pairs, cfg["fewshot_size"], cfg["seed"])
        backbone = _backbone_from_args(args, cfg, vocab)
        train_docs = [p.document for p in split.train]

        variants: list[tuple[str, dict]] = list(_ABLATION_VARIANTS)
        if args.k_grid:
            for k in args.k_grid:
                variants.append((f"fixed_k k={k}", {"strategy": "fixed_k", "k": k}))

        rows = []
        for name, overrides in variants:
            vcfg = dict(cfg)
            vcfg.update({k: v for k, v in overrides.items() if k in ("strategy", "k")})
            config = _prompt_config(vcfg, train_docs)
            config = replace(
                config,
                shared=bool(overrides.get("shared", False)),
                encoder_only=bool(overrides.get("encoder_only", False)),
                decoder_only=bool(overrides.get("decoder_only", False)),
            )
            prompts = init_prompts(config, backbone, cfg["seed"])
            tc = _train_config(cfg, args, "finetune")
            state = init_train_state(prompts, backbone, tc)
            state = run_stage("finetune", list(split.train), list(split.dev), state, backbone, tc)
            report = evaluate_rouge(
                backbone, state.prompts, config, list(split.dev), cfg["beam"], cfg["max_len"]
            )
            rows.append(
                {
                    "variant": name,
                    "r1_f1": report.r1_f1,
                    "r2_f1": report.r2_f1,
                    "rl_f1": report.rl_f1,
                    "trainable_params": count_trainable_params(config, backbone.dims.d),
                }
            )
            print(f"{name}: r1={report.r1_f1:.4f}")

        with open(os.path.join(args.out, "ablation.tsv"), "w", encoding="utf-8") as fh:
            fh.write("variant\tr1_f1\tr2_f1\trl_f1\ttrainable_params\n")
            for row in rows:
                fh.write(
                    f"{row['variant']}\t{row['r1_f1']:.6f}\t{row['r2_f1']:.6f}\t"
                    f"{row['rl_f1']:.6f}\t{row['trainable_params']}\n"
                )
        with open(os.path.join(args.out, "ablation.json"), "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, out: bool = True) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--seed", type=int)
    if out:
        sub.add_argument("--out", required=True, help="output directory")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int)
    sub.add_argument("--layers", type=int)
    sub.add_argument("--heads", type=int)
    sub.add_argument("--ffn", type=int)
    sub.add_argument("--max-pos", dest="max_pos", type=int)
    sub.add_argument("--backbone", help="checkpoint to take the backbone from")
    sub.add_argument("--backbone-seed", dest="backbone_seed", type=int)


def _add_prompt_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--prompt-len-en", dest="prompt_len_en", type=int)
    sub.add_argument("--prompt-len-de", dest="prompt_len_de", type=int)
    sub.add_argument("--strategy", choices=["none", "interval", "sequential", "fixed_k"])
    sub.add_argument("--k", type=int)
    sub.add_argument("--n-max", dest="n_max", type=int)
    sub.add_argument("--shared", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--percentile", type=float)


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=["prompt_only", "full_model"])
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--peak-lr", dest="peak_lr", type=float)
    sub.add_argument("--warmup-steps", dest="warmup_steps", type=int)
    sub.add_argument("--warmup-ratio", dest="warmup_ratio", type=float)
    sub.add_argument("--batch", type=int)
    sub.add_argument("--grad-accum", dest="grad_accum", type=int)


def _add_decode_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beam", type=int)
    sub.add_argument("--max-len", dest="max_len", type=int)


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--vocab", required=True, help="vocab file")
    sub.add_argument("--max-src-tokens", dest="max_src_tokens", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="promptsum")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build-vocab", help="build a vocabulary from a dataset file")
    _add_common(sub)
    sub.add_argument("--data", required=True)
    sub.add_argument("--min-freq", dest="min_freq", type=int, default=1)
    sub.set_defaults(func=cmd_build_vocab)

    sub = subs.add_parser("build-pseudo", help="construct pseudo summary pairs")
    _add_common(sub)
    _add_data_flags(sub)
    sub.add_argument("--data", required=True)
    sub.add_argument(
        "--strategy", dest="pseudo_strategy", choices=["lead", "gsg"], required=True
    )
    sub.add_argument("--m", type=int, help="sentences removed per document (gsg)")
    sub.add_argument("--lead-n", dest="lead_n", type=int)
    sub.add_argument("--min-sum", dest="min_sum", type=int)
    sub.add_argument("--target-sum", dest="target_sum", type=int)
    sub.add_argument("--filter", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--fewshot", help="few-shot file for the filter threshold")
    sub.set_defaults(func=cmd_build_pseudo)

    sub = subs.add_parser("pretrain-backbone", help="full-model training of the toy backbone")
    _add_common(sub)
    _add_data_flags(sub)
    _add_model_flags(sub)
    _add_train_flags(sub)
    sub.add_argument("--data", required=True)
    sub.set_defaults(func=cmd_pretrain_backbone)

    sub = subs.add_parser("pretrain-prompts", help="prompt-only training on pseudo pairs")
    _add_common(sub)
    _add_data_flags(sub)
    _add_model_flags(sub)
    _add_prompt_flags(sub)
    _add_train_flags(sub)
    sub.add_argument("--data", required=True)
    sub.add_argument("--dev")
    sub.set_defaults(func=cmd_pretrain_prompts)

    sub = subs.add_parser("finetune", help="few-shot tuning from a checkpoint")
    _add_common(sub)
    _add_data_flags(sub)
    _add_train_flags(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--data")
    sub.add_argument("--fewshot-size", dest="fewshot_size", type=int)
    sub.add_argument("--train")
    sub.add_argument("--dev")
    sub.set_defaults(func=cmd_finetune)

    sub = subs.add_parser("generate", help="decode summaries for a dataset")
    _add_common(sub)
    _add_data_flags(sub)
    _add_decode_flags(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--data", required=True)
    sub.set_defaults(func=cmd_generate)

    sub = subs.add_parser("evaluate", help="ROUGE + perplexity report")
    _add_common(sub)
    _add_data_flags(sub)
    _add_decode_flags(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--data", required=True)
    sub.set_defaults(func=cmd_evaluate)

    sub = subs.add_parser("zero-shot", help="evaluate pretrained prompts without finetuning")
    _add_common(sub)
    _add_data_flags(sub)
    _add_decode_flags(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--data", required=True)
    sub.set_defaults(func=cmd_zero_shot)

    sub = subs.add_parser("probe-attention", help="export a cross-attention matrix")
    _add_common(sub)
    _add_data_flags(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--index", type=int, default=0)
    sub.set_defaults(func=cmd_probe_attention)

    sub = subs.add_parser("ablate", help="prompt placement / strategy comparison grid")
    _add_common(sub)
    _add_data_flags(sub)
    _add_model_flags(sub)
    _add_prompt_flags(sub)
    _add_train_flags(sub)
    _add_decode_flags(sub)
    sub.add_argument("--data", required=True)
    sub.add_argument("--fewshot-size", dest="fewshot_size", type=int)
    sub.add_argument(
        "--k-grid", dest="k_grid", type=lambda s: [int(v) for v in s.split(",")], default=None
    )
    sub.set_defaults(func=cmd_ablate)

    return parser


def dispatch(argv=None) -> int:
    """Parse and run one subcommand; every failure is a single-line error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (
        CliError,
        CorpusError,
        ConfigError,
        CheckpointError,
        TrainingDivergedError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())
