"""Malformed inputs end in one `error:` line with exit code 1, never a traceback."""

import json

import numpy as np
import pytest

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


def test_truncated_checkpoint(setup, capsys):
    data = (setup / "ckpt.npz").read_bytes()
    (setup / "bad.npz").write_bytes(data[: len(data) // 2])
    assert _run(setup, "evaluate", setup / "bad.npz", ["--max-len", "4"]) == 1
    assert "bad.npz" in _single_error(capsys)


def test_decoder_overflow_fails_before_predictions(setup, capsys):
    # len_de 4 + max_len 61 = 65 decoder rows > max_pos 64.
    assert _run(setup, "evaluate", setup / "ckpt.npz", ["--max-len", "61"]) == 1
    assert "max_pos 64" in _single_error(capsys)
    assert not (setup / "out" / "predictions.jsonl").exists()
    assert _run(setup, "evaluate", setup / "ckpt.npz", ["--max-len", "60"]) == 0
