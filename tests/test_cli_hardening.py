"""Malformed inputs end in one `error:` line with exit code 1, never a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import promptsum
from promptsum import cli
from promptsum.cli import dispatch
from promptsum.corpus import load_vocab
from promptsum.model import ModelDims, PromptConfig, init_backbone, init_prompts, save_checkpoint

from conftest import make_lead_corpus, write_jsonl


@pytest.fixture
def setup(tmp_path):
    """A vocab, a test set and a matching tiny checkpoint (max_pos 64, len_de 4)."""
    write_jsonl(tmp_path / "data.jsonl", make_lead_corpus(4, seed=0))
    assert dispatch(["build-vocab", "--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path / "v")]) == 0
    vocab = load_vocab(tmp_path / "v" / "vocab.txt")
    dims = ModelDims(d=8, layers=1, heads=2, ffn=16, vocab=len(vocab), max_pos=64)
    backbone = init_backbone(dims, seed=0)
    config = PromptConfig(len_en=4, len_de=4, strategy="none")
    save_checkpoint(tmp_path / "ckpt.npz", backbone, init_prompts(config, backbone, 0))
    return tmp_path


def _arrays(path) -> dict:
    with np.load(path) as npz:
        return {k: npz[k] for k in npz.files}


def _run(setup, command: str, checkpoint, extra=()) -> int:
    return dispatch([
        command, "--checkpoint", str(checkpoint),
        "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--beam", "2", *extra, "--out", str(setup / "out"),
    ])


def _single_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.strip().count("\n") == 0
    return err


def test_build_vocab_rejects_non_object_line(tmp_path, capsys):
    (tmp_path / "bad.jsonl").write_text('{"document": "A b.", "summary": "A."}\n[1, 2]\n')
    rc = dispatch(["build-vocab", "--data", str(tmp_path / "bad.jsonl"), "--out", str(tmp_path / "v")])
    assert rc == 1
    assert "line 2" in _single_error(capsys)


@pytest.mark.parametrize("value", [None, 3, ["a"], {"text": "a"}], ids=["null", "number", "list", "object"])
@pytest.mark.parametrize("key", ["document", "summary"])
@pytest.mark.parametrize("command", ["build-vocab", "build-pseudo", "generate"])
def test_record_field_that_is_not_a_string_is_one_error_line(setup, capsys, command, key, value):
    records = make_lead_corpus(2, seed=0)
    records[1][key] = value
    write_jsonl(setup / "bad.jsonl", records)
    extra = {
        "build-vocab": [],
        "build-pseudo": ["--vocab", str(setup / "v" / "vocab.txt"), "--strategy", "lead"],
        "generate": ["--vocab", str(setup / "v" / "vocab.txt"), "--checkpoint", str(setup / "ckpt.npz")],
    }[command]
    rc = dispatch([command, "--data", str(setup / "bad.jsonl"), *extra, "--out", str(setup / "out")])
    assert rc == 1
    assert _single_error(capsys) == f"error: {setup / 'bad.jsonl'}: line 2: {key!r} must be a string\n"


@pytest.mark.parametrize("damage", ["repeat", "swap", "short"])
def test_bad_vocab_file_error_names_the_file(setup, capsys, damage):
    path = setup / "v" / "vocab.txt"
    tokens = path.read_text().splitlines()
    if damage == "repeat":
        tokens.insert(6, tokens[4])
        message = f"{path}: line 7: token {tokens[4]!r} repeats line 5"
    elif damage == "swap":
        tokens[2], tokens[3] = tokens[3], tokens[2]
        message = f"{path}: line 3: id 2 must be reserved for '<eos>'"
    else:
        tokens = tokens[:2]
        message = f"{path}: line 3: id 2 must be reserved for '<eos>'"
    path.write_text("\n".join(tokens) + "\n")
    rc = dispatch([
        "build-pseudo", "--data", str(setup / "data.jsonl"), "--vocab", str(path),
        "--strategy", "lead", "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert _single_error(capsys) == f"error: {message}\n"


def _damage(raw: bytes, damage: str) -> bytes:
    """One or two bytes of a checkpoint changed; ``embed/pos`` (64, 8) is read in part
    before its CRC is checked, so NumPy parses its damaged header."""
    header = raw.index(b"'shape': (64, 8), }")
    if damage == "open bracket":
        at = header + len(b"'shape': (64, 8")
        return raw[:at] + b"(" + raw[at + 1 :]
    if damage == "dtype":
        at = raw.rindex(b"'descr': '<f8'", 0, header) + len(b"'descr': '")
        return raw[:at] + b"," + raw[at + 1 :]
    if damage == "directory offset":
        # The end record's offset of the central directory, past its real
        # place, makes zipfile seek to a negative offset (an OSError).
        at = raw.rindex(b"PK\x05\x06") + 16
        return raw[:at] + (0x7FFFFFFF).to_bytes(4, "little") + raw[at + 4 :]
    at = raw.index(b"PK\x01\x02") + 8  # general-purpose flags of the first central entry
    return raw[:at] + bytes([raw[at] | 1]) + raw[at + 1 :]


@pytest.mark.parametrize("damage", ["open bracket", "dtype", "encrypted flag", "directory offset"])
def test_damaged_checkpoint_is_one_error_line(setup, capsys, damage):
    # NumPy and zipfile raise tokenize.TokenError, SyntaxError, RuntimeError
    # and OSError here, none of them a ValueError.
    (setup / "bad.npz").write_bytes(_damage((setup / "ckpt.npz").read_bytes(), damage))
    assert _run(setup, "generate", setup / "bad.npz", ["--max-len", "4"]) == 1
    assert "bad.npz: unreadable checkpoint" in _single_error(capsys)


def test_checkpoint_missing_decoder_prompt(setup, capsys):
    arrays = _arrays(setup / "ckpt.npz")
    del arrays["prompts/P_de"]
    np.savez(setup / "bad.npz", **arrays)
    assert _run(setup, "generate", setup / "bad.npz", ["--max-len", "4"]) == 1
    err = _single_error(capsys)
    assert "bad.npz" in err and "prompts/P_de" in err


@pytest.mark.parametrize("section", ["dims", "prompt_config"])
def test_checkpoint_unknown_metadata_key(setup, capsys, section):
    arrays = _arrays(setup / "ckpt.npz")
    meta = json.loads(str(arrays["__meta__"]))
    meta[section]["colour"] = "blue"
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(setup / "bad.npz", **arrays)
    assert _run(setup, "generate", setup / "bad.npz", ["--max-len", "4"]) == 1
    err = _single_error(capsys)
    assert "bad.npz" in err and "colour" in err


@pytest.mark.parametrize(
    "meta, message",
    [
        (np.array("not json"), "Expecting value"),
        (np.array([{"version": 1}], dtype=object), "allow_pickle=False"),
    ],
    ids=["not-json", "object-array"],
)
def test_checkpoint_malformed_metadata_header(setup, capsys, meta, message):
    arrays = _arrays(setup / "ckpt.npz")
    arrays["__meta__"] = meta
    np.savez(setup / "bad.npz", **arrays)
    assert _run(setup, "generate", setup / "bad.npz", ["--max-len", "4"]) == 1
    err = _single_error(capsys)
    assert "bad.npz: malformed metadata header" in err and message in err


def test_truncated_checkpoint(setup, capsys):
    data = (setup / "ckpt.npz").read_bytes()
    (setup / "bad.npz").write_bytes(data[: len(data) // 2])
    assert _run(setup, "evaluate", setup / "bad.npz", ["--max-len", "4"]) == 1
    assert "bad.npz" in _single_error(capsys)


@pytest.mark.parametrize("offset", [6, 8, 10])
def test_checkpoint_needing_unsupported_zip_feature(setup, capsys, offset):
    # Bytes 6, 8 and 10 of a central-directory record hold the zip version
    # needed, the flag bits and the compression method; 122 in any of them
    # asks for a feature the zip reader does not implement.
    data = bytearray((setup / "ckpt.npz").read_bytes())
    data[data.index(b"PK\x01\x02") + offset] = 122
    (setup / "bad.npz").write_bytes(bytes(data))
    assert _run(setup, "evaluate", setup / "bad.npz", ["--max-len", "4"]) == 1
    assert "bad.npz" in _single_error(capsys)


def test_decoder_overflow_fails_before_predictions(setup, capsys):
    # len_de 4 + max_len 61 = 65 decoder rows > max_pos 64.
    assert _run(setup, "evaluate", setup / "ckpt.npz", ["--max-len", "61"]) == 1
    assert "max_pos 64" in _single_error(capsys)
    assert not (setup / "out" / "predictions.jsonl").exists()
    assert _run(setup, "evaluate", setup / "ckpt.npz", ["--max-len", "60"]) == 0


def test_encoder_overflow_fails_before_predictions(setup, capsys):
    # len_en 4 + 12 * 6 source tokens = 76 encoder rows > max_pos 64, in the last document.
    records = make_lead_corpus(2, seed=0)
    records.append({"document": " ".join(["The cat sees the dog."] * 12), "summary": "The cat."})
    write_jsonl(setup / "data.jsonl", records)
    assert _run(setup, "evaluate", setup / "ckpt.npz", ["--max-len", "4"]) == 1
    err = _single_error(capsys)
    assert "test document 2" in err and "max_pos 64" in err
    assert not (setup / "out" / "predictions.jsonl").exists()


_NEW_MODEL = [
    "--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "40",
    "--prompt-len-en", "4", "--prompt-len-de", "4", "--strategy", "none",
]


@pytest.mark.parametrize(
    "command, flag, extra, empty",
    [
        ("pretrain-prompts", "--data", _NEW_MODEL, 0),
        ("pretrain-prompts", "--dev", _NEW_MODEL + ["--data", "{short}"], 0),
        ("pretrain-backbone", "--data", _NEW_MODEL[:10], 0),
        ("finetune", "--train", ["--checkpoint", "{ckpt}"], 0),
        ("finetune", "--data", ["--checkpoint", "{ckpt}", "--fewshot-size", "4"], 0),
        ("ablate", "--data", _NEW_MODEL + ["--fewshot-size", "4", "--max-len", "4"], 0),
        ("pretrain-backbone", "--data", _NEW_MODEL[:10], 1),
        ("ablate", "--data", _NEW_MODEL + ["--fewshot-size", "4", "--max-len", "4"], 1),
    ],
    ids=[
        "pretrain-prompts", "pretrain-prompts-dev", "pretrain-backbone", "finetune-train", "finetune-fewshot",
        "ablate", "pretrain-backbone-after-empty", "ablate-after-empty",
    ],
)
def test_training_pair_overflow_fails_before_the_first_step(setup, capsys, command, flag, extra, empty):
    # Record 7 has an 84-token summary: 4 + 85 decoder rows exceed max_pos 40
    # (64 for the checkpoint), and 0 + 85 for the backbone. The other records
    # fit; with --fewshot-size 4 all eight are drawn. ``empty`` records with an
    # empty document go in front: they are skipped, but they keep their record
    # numbers, so the long record is record 7 + empty.
    records = make_lead_corpus(7, seed=0, min_sentences=2, max_sentences=3)
    write_jsonl(setup / "short.jsonl", records)
    records.append({"document": "The cat sees the dog.", "summary": " ".join(["The cat sees the dog."] * 14)})
    records[:0] = [{"document": "", "summary": "The cat."}] * empty
    write_jsonl(setup / "long.jsonl", records)
    paths = {"short": setup / "short.jsonl", "ckpt": setup / "ckpt.npz"}
    argv = [
        command, flag, str(setup / "long.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        *(arg.format(**paths) for arg in extra), "--epochs", "1", "--out", str(setup / "out"),
    ]
    assert dispatch(argv) == 1
    err = _single_error(capsys)
    assert f"{flag} record {7 + empty}: decoder length" in err and "exceeds max_pos" in err
    assert not (setup / "out" / "train_log.jsonl").exists()
    assert json.loads((setup / "out" / "manifest.json").read_text())["status"] == "error"


@pytest.mark.parametrize(
    "decode, message",
    [
        (["--max-len", "39"], "decoder length 43 (len_de 4 + 39 target tokens) exceeds max_pos 40"),
        (["--max-len", "4", "--beam", "0"], "beam must be >= 1"),
        (["--max-len", "0"], "max_len must be >= 1"),
    ],
    ids=["max-len-overflow", "beam-zero", "max-len-zero"],
)
def test_ablate_checks_decode_settings_before_training(setup, capsys, monkeypatch, decode, message):
    # Every variant's pairs fit max_pos 40; only the decode settings do not.
    # The encoder-only variant has no decoder prompt, so 0 + 39 rows would fit:
    # the check has to cover every variant before the first one trains.
    from promptsum import cli

    monkeypatch.setattr(cli, "run_stage", lambda *a, **k: pytest.fail("trained"))
    write_jsonl(setup / "short.jsonl", make_lead_corpus(4, seed=0, min_sentences=2, max_sentences=3))
    rc = dispatch([
        "ablate", "--data", str(setup / "short.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        *_NEW_MODEL, "--fewshot-size", "2", "--epochs", "1", *decode, "--out", str(setup / "out"),
    ])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert "placement=" not in out
    assert not (setup / "out" / "ablation.tsv").exists()


def test_probe_attention_checks_its_pair_before_encoding(setup, capsys, monkeypatch):
    # The probe runs len_de 4 + BOS + the 60-token summary (EOS included) =
    # 65 decoder rows > max_pos 64, one row more than training on the pair.
    from promptsum import model

    monkeypatch.setattr(model, "encode_source", lambda *a, **k: pytest.fail("encoded"))
    records = make_lead_corpus(2, seed=0)
    records.append({"document": "The cat sees the dog.", "summary": " ".join(["cat"] * 59)})
    write_jsonl(setup / "data.jsonl", records)
    rc = dispatch([
        "probe-attention", "--checkpoint", str(setup / "ckpt.npz"), "--data", str(setup / "data.jsonl"),
        "--vocab", str(setup / "v" / "vocab.txt"), "--index", "2", "--out", str(setup / "out"),
    ])
    assert rc == 1
    err = _single_error(capsys)
    assert "--index 2: decoder length 65 (len_de 4 + 61 target tokens) exceeds max_pos 64" in err
    assert not (setup / "out" / "attention.txt").exists()


@pytest.mark.parametrize(
    "line",
    [
        "seed = 1.5",
        "max_src_tokens = many",
        "lead_n = x",
        "percentile = high",
        "shared = maybe",
        "beam = true",
        "strategy = 3",
        "mode = 1",
        "backbone_seed = 0.5",
        "pretrain_warmup_steps = 0.1",
        "finetune_warmup_ratio = none",
        "finetune_warmup_ratoi = 0.1",  # no such key
    ],
)
def test_config_value_of_the_wrong_type(setup, capsys, line):
    (setup / "run.cfg").write_text(f"d = 8\n{line}\n")
    rc = dispatch([
        "build-pseudo", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--strategy", "lead", "--config", str(setup / "run.cfg"), "--out", str(setup / "out"),
    ])
    assert rc == 1
    err = _single_error(capsys)
    assert "run.cfg" in err and line.split(" =")[0] in err
    assert not (setup / "out").exists()


def test_config_int_accepted_for_a_float_key(setup):
    (setup / "run.cfg").write_text("percentile = 1\nbeta1 = 0\n")
    rc = dispatch([
        "build-pseudo", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--strategy", "lead", "--config", str(setup / "run.cfg"), "--out", str(setup / "out"),
    ])
    assert rc == 0
    manifest = json.loads((setup / "out" / "manifest.json").read_text())
    assert manifest["config"]["percentile"] == 1


def test_fixed_k_with_k_zero(setup, capsys):
    rc = dispatch([
        "pretrain-prompts", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "64",
        "--prompt-len-en", "2", "--prompt-len-de", "2", "--strategy", "fixed_k", "--k", "0",
        "--epochs", "1", "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert "k must be >= 1" in _single_error(capsys)
    assert not (setup / "out").exists()


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize("command", ["finetune", "ablate"])
def test_fewshot_size_below_one(setup, capsys, monkeypatch, command, size):
    from promptsum import cli

    monkeypatch.setattr(cli, "run_stage", lambda *a, **k: pytest.fail("trained"))
    source = ["--checkpoint", str(setup / "ckpt.npz")] if command == "finetune" else []
    rc = dispatch([
        command, *source, "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--fewshot-size", size, "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert f"few-shot size must be >= 1, got {size}" in _single_error(capsys)
    assert not (setup / "out").exists()


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("pretrain-prompts", ["--max-src-tokens", "0"], "max_src_tokens must be >= 1, got 0"),
        ("generate", ["--max-src-tokens", "-2"], "max_src_tokens must be >= 1, got -2"),
        ("ablate", ["--k-grid", "4,0"], "--k-grid values must be >= 1, got 0"),
        ("pretrain-prompts", ["--strategy", "fixed_k", "--k", "0"], "span length k must be >= 1, got 0"),
        ("pretrain-prompts", ["--strategy", "fixed_k", "--k", "0", "--n-max", "3"], "fixed_k requires k >= 1"),
        ("ablate", ["--k", "-2"], "span length k must be >= 1, got -2"),
        ("pretrain-prompts", ["--prompt-len-en", "-1"], "prompt lengths must be >= 0"),
        ("ablate", ["--prompt-len-de", "-1"], "prompt lengths must be >= 0"),
        ("pretrain-prompts", ["--strategy", "sequential", "--percentile", "1.5"], "percentile must be in (0, 1]"),
        ("ablate", ["--percentile", "0"], "percentile must be in (0, 1]"),
        ("pretrain-prompts", ["--shared", "--prompt-len-de", "3"], "shared prompts require len_en == len_de"),
        ("ablate", ["--prompt-len-de", "3"], "shared prompts require len_en == len_de"),
        ("build-pseudo", ["--strategy", "lead", "--lead-n", "0"], "lead_n must be >= 1, got 0"),
        ("build-pseudo", ["--strategy", "gsg", "--m", "0"], "gap-sentence count m must be >= 1, got 0"),
        ("pretrain-prompts", ["--d", "0"], "all model dimensions must be >= 1"),
        ("pretrain-prompts", ["--layers", "0"], "all model dimensions must be >= 1"),
        ("pretrain-prompts", ["--max-pos", "0"], "all model dimensions must be >= 1"),
        ("pretrain-prompts", ["--d", "64", "--heads", "3"], "d=64 must be divisible by heads=3"),
        ("pretrain-backbone", ["--ffn", "0"], "all model dimensions must be >= 1"),
        ("ablate", ["--d", "10", "--heads", "4"], "d=10 must be divisible by heads=4"),
        (
            "pretrain-prompts", ["--prompt-len-en", "5000"],
            "prompt lengths: encoder length 5001 (len_en 5000 + 1 source tokens) exceeds max_pos 40",
        ),
        (
            "pretrain-prompts", ["--prompt-len-de", "40"],
            "prompt lengths: decoder length 41 (len_de 40 + 1 target tokens) exceeds max_pos 40",
        ),
        (
            "ablate", ["--prompt-len-en", "2000", "--prompt-len-de", "2000"],
            "prompt lengths: encoder length 2001 (len_en 2000 + 1 source tokens) exceeds max_pos 40",
        ),
        (
            "ablate", ["--max-len", "37"],
            "prompt lengths: decoder length 41 (len_de 4 + 37 target tokens) exceeds max_pos 40",
        ),
    ],
    ids=[
        "pretrain-prompts-max-src-tokens", "generate-max-src-tokens", "ablate-k-grid",
        "pretrain-prompts-k", "pretrain-prompts-k-with-n-max", "ablate-k", "pretrain-prompts-prompt-len",
        "ablate-prompt-len", "pretrain-prompts-percentile", "ablate-percentile", "pretrain-prompts-shared",
        "ablate-shared", "build-pseudo-lead-n", "build-pseudo-m", "pretrain-prompts-d", "pretrain-prompts-layers",
        "pretrain-prompts-max-pos", "pretrain-prompts-heads", "pretrain-backbone-ffn", "ablate-heads",
        "pretrain-prompts-encoder-prompt", "pretrain-prompts-decoder-prompt", "ablate-prompts", "ablate-max-len",
    ],
)
def test_bad_input_setting_is_refused_before_the_run(setup, capsys, command, setting, message):
    extra = {
        "pretrain-prompts": _NEW_MODEL,
        "pretrain-backbone": _NEW_MODEL[:10],
        "generate": ["--checkpoint", str(setup / "ckpt.npz")],
        "ablate": [*_NEW_MODEL, "--fewshot-size", "2"],
        "build-pseudo": [],
    }[command]
    rc = dispatch([
        command, *extra, "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        *setting, "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert _single_error(capsys) == f"error: {message}\n"
    assert not (setup / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ablate", "--k-grid", "a,b"],
        ["generate", "--beam", "x"],
        ["build-vocab", "--data", "d.jsonl"],
        ["frobnicate"],
    ],
    ids=["bad-list", "bad-int", "missing-flag", "unknown-command"],
)
def test_flag_error_is_one_error_line(capsys, argv):
    assert dispatch(argv) == 1
    err = _single_error(capsys)
    assert err.startswith("error: promptsum")
    assert not capsys.readouterr().out


def test_help_still_exits_zero(capsys):
    assert dispatch(["generate", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: promptsum generate") and "--checkpoint CHECKPOINT" in out


def test_manifest_counts_skipped_records(setup, capsys):
    records = make_lead_corpus(2, seed=1) + [{"document": "", "summary": "A cat."}]
    write_jsonl(setup / "data.jsonl", records)
    capsys.readouterr()
    assert _run(setup, "generate", setup / "ckpt.npz", ["--max-len", "4"]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((setup / "out" / "manifest.json").read_text())
    assert manifest["n_skipped"] == {"data": 1}


@pytest.mark.parametrize(
    "extra, config, named",
    [
        (["--seed", "-1"], None, "--seed"),
        (["--backbone-seed", "-3"], None, "--backbone-seed"),
        ([], "seed = -1", "run.cfg: seed"),
        ([], "backbone_seed = -2", "run.cfg: backbone_seed"),
    ],
    ids=["flag-seed", "flag-backbone-seed", "config-seed", "config-backbone-seed"],
)
def test_negative_seed_is_one_error_line(setup, capsys, extra, config, named):
    if config:
        (setup / "run.cfg").write_text(config + "\n")
        extra = ["--config", str(setup / "run.cfg")]
    rc = dispatch([
        "pretrain-prompts", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "64",
        "--prompt-len-en", "2", "--prompt-len-de", "2", "--epochs", "1", *extra, "--out", str(setup / "out"),
    ])
    assert rc == 1
    err = _single_error(capsys)
    assert f"{named} must be >= 0" in err
    assert not (setup / "out").exists()


def test_negative_epochs_is_one_error_line(setup, capsys):
    rc = dispatch([
        "pretrain-prompts", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "64",
        "--prompt-len-en", "2", "--prompt-len-de", "2", "--epochs", "-3", "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert "epochs must be >= 0, got -3" in _single_error(capsys)
    assert not (setup / "out" / "checkpoint.npz").exists()


@pytest.mark.parametrize("steps, epochs", [("0", "0"), ("-3", "1")])
def test_warmup_steps_below_one_is_one_error_line(setup, capsys, steps, epochs):
    rc = dispatch([
        "pretrain-prompts", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "64",
        "--prompt-len-en", "2", "--prompt-len-de", "2", "--epochs", epochs, "--warmup-steps", steps,
        "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert f"warmup_steps must be >= 1, got {steps}" in _single_error(capsys)
    assert not (setup / "out" / "checkpoint.npz").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("strategy, flag, name", [("gsg", "--m", "m"), ("lead", "--lead-n", "lead_n")])
def test_pseudo_summary_size_below_one(setup, capsys, strategy, flag, name, value):
    rc = dispatch([
        "build-pseudo", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--strategy", strategy, flag, value, "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert f"{name} must be >= 1, got {value}" in _single_error(capsys)
    assert not (setup / "out").exists()


# An existing file for each input flag, by dest.
_INPUT_FILES = {
    "data": "data.jsonl", "vocab": "v/vocab.txt", "checkpoint": "ckpt.npz", "backbone": "ckpt.npz",
    "train": "data.jsonl", "dev": "data.jsonl", "fewshot": "data.jsonl",
}


@pytest.mark.parametrize(
    "command, missing",
    [
        (name, flag[2:])
        for name, spec in cli._COMMANDS.items()
        for flag, _ in spec.flags
        if flag[2:] in cli._INPUTS
    ],
)
def test_missing_input_is_refused_before_the_run(setup, capsys, command, missing):
    argv = [command, "--out", str(setup / "out")] + (["--strategy", "lead"] if command == "build-pseudo" else [])
    for flag, _ in cli._COMMANDS[command].flags:
        if flag[2:] in cli._INPUTS:
            argv += [flag, str(setup / ("gone" if flag[2:] == missing else _INPUT_FILES[flag[2:]]))]
    assert dispatch(argv) == 1
    assert _single_error(capsys) == f"error: --{missing} {setup / 'gone'}: no such file\n"
    assert not (setup / "out").exists()


@pytest.mark.parametrize(
    "setting, message",
    [(["--warmup-steps", "0"], "warmup_steps must be >= 1, got 0"), (["--peak-lr", "-1"], "peak_lr must be finite")],
    ids=["warmup-steps", "peak-lr"],
)
@pytest.mark.parametrize("command", ["pretrain-prompts", "finetune", "ablate"])
def test_bad_training_setting_is_refused_before_the_run(setup, capsys, command, setting, message):
    extra = {
        "pretrain-prompts": _NEW_MODEL,
        "finetune": ["--checkpoint", str(setup / "ckpt.npz"), "--fewshot-size", "2"],
        "ablate": [*_NEW_MODEL, "--fewshot-size", "2", "--max-len", "4"],
    }[command]
    rc = dispatch([
        command, *extra, "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        *setting, "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert message in _single_error(capsys)
    assert not (setup / "out").exists()


@pytest.mark.parametrize(
    "setting, message",
    [(["--beam", "0"], "beam must be >= 1, got 0"), (["--max-len", "-1"], "max_len must be >= 1, got -1")],
    ids=["beam-zero", "max-len-negative"],
)
@pytest.mark.parametrize(
    "command", [name for name, spec in cli._COMMANDS.items() if cli._DECODE_FLAGS[0] in spec.flags]
)
def test_bad_decode_setting_is_refused_before_the_run(setup, capsys, command, setting, message):
    extra = [*_NEW_MODEL, "--fewshot-size", "2"] if command == "ablate" else ["--checkpoint", str(setup / "ckpt.npz")]
    rc = dispatch([
        command, *extra, "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        *setting, "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert _single_error(capsys) == f"error: {message}\n"
    assert not (setup / "out").exists()


_NO_SOURCE = "provide --data (with --fewshot-size) or --train/--dev"
_TWO_SOURCES = "give --data or --train/--dev, not both"


@pytest.mark.parametrize(
    "sources, message",
    [
        ([], _NO_SOURCE),
        (["--dev"], _NO_SOURCE),
        (["--data", "--train"], _TWO_SOURCES),
        (["--data", "--dev"], _TWO_SOURCES),
    ],
    ids=["none", "dev only", "data and train", "data and dev"],
)
def test_finetune_takes_data_or_a_train_split_before_the_run(setup, capsys, sources, message):
    # --data beside --train or --dev would name a file that is never read.
    rc = dispatch([
        "finetune", "--checkpoint", str(setup / "ckpt.npz"), "--vocab", str(setup / "v" / "vocab.txt"),
        *(arg for flag in sources for arg in (flag, str(setup / "data.jsonl"))), "--out", str(setup / "out"),
    ])
    assert rc == 1
    assert _single_error(capsys) == f"error: {message}\n"
    assert not (setup / "out").exists()


@pytest.mark.parametrize("flag", ["--data", "--vocab", "--config"])
def test_non_utf8_input_names_the_file_and_line(setup, capsys, flag):
    paths = {"--data": setup / "data.jsonl", "--vocab": setup / "v" / "vocab.txt", "--config": setup / "run.cfg"}
    paths["--config"].write_text("beam = 2\nd = 8\n")
    lines = paths[flag].read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    paths[flag].write_bytes(b"\n".join(lines))
    argv = ["build-pseudo", "--strategy", "lead", "--out", str(setup / "out")]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert dispatch(argv) == 1
    assert _single_error(capsys) == f"error: {paths[flag]}: line 2: not UTF-8: invalid start byte\n"


def test_manifest_records_every_input_file(setup):
    data, vocab = str(setup / "data.jsonl"), str(setup / "v" / "vocab.txt")
    model = ["--d", "8", "--layers", "1", "--heads", "2", "--ffn", "16", "--max-pos", "64", "--epochs", "1"]
    runs = {
        "pretrain-backbone": (["--backbone", str(setup / "ckpt.npz")], {"backbone": str(setup / "ckpt.npz")}),
        "pretrain-prompts": (  # seed 0 is the lowest valid seed
            ["--dev", data, "--prompt-len-en", "2", "--prompt-len-de", "2", "--seed", "0", "--backbone-seed", "0"],
            {"backbone": None, "dev": data},
        ),
        "build-pseudo": (["--strategy", "lead"], {"fewshot": None}),
    }
    for command, (extra, expected) in runs.items():
        out = setup / command
        flags = model if command.startswith("pretrain") else []
        rc = dispatch([command, "--data", data, "--vocab", vocab, *flags, *extra, "--out", str(out)])
        assert rc == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {"data": data, "vocab": vocab, **expected}, command


# The child's own address-space limit: room for Python and NumPy, far too
# little for the backbone below, so that allocation fails before it starts.
_OOM_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from promptsum.cli import main
main()
"""


def test_out_of_memory_is_one_error_line(setup):
    # d = 10**8 makes the token embedding alone vocab x 0.8 GB.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(promptsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [
        "pretrain-prompts", "--data", str(setup / "data.jsonl"), "--vocab", str(setup / "v" / "vocab.txt"),
        "--d", str(10**8), "--heads", "1", "--epochs", "1", "--out", str(setup / "out"),
    ]
    out = subprocess.run(
        [sys.executable, "-c", _OOM_CHILD, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: out of memory: ")
    assert out.stderr.strip().count("\n") == 0, out.stderr
    manifest = json.loads((setup / "out" / "manifest.json").read_text())
    assert manifest["status"] == "error"
