"""End-to-end subcommand behavior: manifests, locking, errors, and outputs."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import promptsum
from promptsum import cli
from promptsum.cli import dispatch, load_config_file, shipped_defaults
from promptsum.corpus import load_dataset, load_vocab
from promptsum.model import (
    ModelDims, PromptConfig, init_backbone, init_prompts, load_checkpoint, save_checkpoint,
)
from promptsum.training import _dev_rouge1

from conftest import make_lead_corpus, write_jsonl

TINY_MODEL = [
    "--d", "16", "--layers", "1", "--heads", "2", "--ffn", "24", "--max-pos", "96",
    "--backbone-seed", "7",
]
TINY_PROMPTS = ["--prompt-len-en", "4", "--prompt-len-de", "4", "--strategy", "interval"]


@pytest.fixture
def corpus_dir(tmp_path):
    write_jsonl(tmp_path / "train.jsonl", make_lead_corpus(12, seed=0))
    write_jsonl(tmp_path / "test.jsonl", make_lead_corpus(4, seed=1))
    rc = dispatch(["build-vocab", "--data", str(tmp_path / "train.jsonl"), "--out", str(tmp_path / "v")])
    assert rc == 0
    return tmp_path


def _read_json(path):
    return json.loads(path.read_text())


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _vocab(corpus_dir):
    return str(corpus_dir / "v" / "vocab.txt")


def _pretrain_argv(corpus_dir, out="ckpt", epochs="4", extra=()):
    return [
        "pretrain-prompts",
        "--data", str(corpus_dir / "pseudo" / "pseudo.jsonl"),
        "--vocab", _vocab(corpus_dir),
        *TINY_MODEL, *TINY_PROMPTS,
        "--epochs", epochs, "--batch", "4", "--grad-accum", "1",
        "--peak-lr", "1e-2", "--warmup-ratio", "0.1",
        "--seed", "1",
        "--out", str(corpus_dir / out),
        *extra,
    ]


def _pretrain(corpus_dir, out="ckpt", epochs="4", extra=()):
    assert dispatch(_pretrain_argv(corpus_dir, out, epochs, extra)) == 0
    return str(corpus_dir / out / "checkpoint.npz")


def _python_m(argv, cwd, module="promptsum"):
    """Run ``python -m <module>`` on ``argv`` in a child with ``src`` on its path."""
    env = dict(os.environ)
    src = str(Path(promptsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def _build_pseudo(corpus_dir, extra=(), expect=0):
    rc = dispatch([
        "build-pseudo",
        "--data", str(corpus_dir / "train.jsonl"),
        "--vocab", _vocab(corpus_dir),
        "--strategy", "lead", "--lead-n", "1", "--min-sum", "1",
        "--out", str(corpus_dir / "pseudo"),
        *extra,
    ])
    assert rc == expect


class TestDispatch:
    def test_unknown_subcommand_nonzero(self, capsys):
        assert dispatch(["frobnicate"]) != 0

    def test_missing_required_flag_nonzero(self):
        assert dispatch(["build-vocab"]) != 0

    def test_error_is_single_line(self, tmp_path, capsys):
        rc = dispatch(["build-vocab", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("module", ["promptsum", "promptsum.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        write_jsonl(tmp_path / "train.jsonl", make_lead_corpus(2, seed=0))
        out = _python_m(["build-vocab", "--data", "train.jsonl", "--out", "v"], cwd=tmp_path, module=module)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        assert (tmp_path / "v" / "vocab.txt").exists()


class TestRunBookkeeping:
    def test_manifest_written_with_config(self, corpus_dir):
        manifest = _read_json(corpus_dir / "v" / "manifest.json")
        assert manifest["command"] == "build-vocab"
        assert manifest["config"]["beam"] == 4
        assert "started_utc" in manifest
        assert manifest["outputs"] == ["vocab.txt"]
        assert manifest["argv"][0] == "build-vocab"  # enough to replay the run

    def test_lock_removed_after_run(self, corpus_dir):
        assert not (corpus_dir / "v" / ".lock").exists()

    def test_locked_directory_refused(self, corpus_dir, capsys):
        out = corpus_dir / "locked"
        out.mkdir()
        (out / ".lock").touch()
        rc = dispatch(["build-vocab", "--data", str(corpus_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 1
        assert "locked" in capsys.readouterr().err

    def test_manifest_records_a_finished_run(self, corpus_dir):
        manifest = _read_json(corpus_dir / "v" / "manifest.json")
        assert manifest["status"] == "ok"
        assert manifest["error"] is None
        assert manifest["duration_s"] >= 0
        assert manifest["finished_utc"] >= manifest["started_utc"]

    def test_manifest_records_a_failed_run(self, corpus_dir, capsys):
        (corpus_dir / "bad.jsonl").write_text("[1, 2]\n")
        out = corpus_dir / "failed"
        assert dispatch(["build-vocab", "--data", str(corpus_dir / "bad.jsonl"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        manifest = _read_json(out / "manifest.json")
        assert manifest["status"] == "error"
        assert err == f"error: {manifest['error']}\n"
        assert "finished_utc" in manifest and manifest["duration_s"] >= 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_stale_lock_reported_and_kept(self, corpus_dir, capsys):
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()
        out = corpus_dir / "stale"
        out.mkdir()
        (out / ".lock").write_text(f"{child.pid}\n")
        rc = dispatch(["build-vocab", "--data", str(corpus_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.strip().count("\n") == 0
        assert "stale" in err and str(child.pid) in err and str(out / ".lock") in err
        assert (out / ".lock").read_text() == f"{child.pid}\n"

    def test_lock_of_a_live_run_is_not_stale(self, corpus_dir, capsys):
        out = corpus_dir / "live"
        out.mkdir()
        (out / ".lock").write_text(f"{os.getpid()}\n")
        rc = dispatch(["build-vocab", "--data", str(corpus_dir / "train.jsonl"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "locked by another run" in err and "stale" not in err

    def test_lock_holds_the_run_pid(self, corpus_dir, monkeypatch):
        from promptsum import cli

        seen = []
        real = cli.build_vocab

        def spy(*args, **kwargs):
            seen.append((corpus_dir / "pid" / ".lock").read_text())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_vocab", spy)
        assert dispatch(["build-vocab", "--data", str(corpus_dir / "train.jsonl"), "--out", str(corpus_dir / "pid")]) == 0
        assert seen == [f"{os.getpid()}\n"]

    def test_inputs_not_mutated(self, corpus_dir):
        before = (corpus_dir / "train.jsonl").read_bytes()
        _build_pseudo(corpus_dir)
        assert (corpus_dir / "train.jsonl").read_bytes() == before


class TestConfig:
    def test_defaults_parse(self):
        cfg = shipped_defaults()
        assert cfg["prompt_len_en"] == 100
        assert cfg["prompt_len_de"] == 100
        assert cfg["k"] == 10
        assert cfg["shared"] is False
        assert cfg["percentile"] == 0.85
        assert cfg["max_src_tokens"] == 1024

    def test_default_training_schedule(self):
        cfg = shipped_defaults()
        assert (cfg["batch"], cfg["grad_accum"]) == (8, 10)
        assert (cfg["beta1"], cfg["beta2"]) == (0.9, 0.998)
        assert cfg["pretrain_peak_lr"] == 1e-3
        assert cfg["pretrain_warmup_ratio"] == 0.1
        assert cfg["finetune_peak_lr"] == 3e-4
        assert cfg["finetune_warmup_steps"] == 100
        assert cfg["finetune_epochs"] == 400

    def test_default_decoding(self):
        cfg = shipped_defaults()
        assert (cfg["beam"], cfg["max_len"]) == (4, 256)

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("d = 24  # narrow\nbeam = 2\n")
        cfg = load_config_file(cfg_file)
        assert cfg == {"d": 24, "beam": 2}

    def test_flag_overrides_config_file(self, tmp_path, corpus_dir):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("beam = 2\n")
        rc = dispatch([
            "build-vocab", "--data", str(corpus_dir / "train.jsonl"),
            "--config", str(cfg_file), "--seed", "5",
            "--out", str(corpus_dir / "v2"),
        ])
        assert rc == 0
        manifest = _read_json(corpus_dir / "v2" / "manifest.json")
        assert manifest["config"]["beam"] == 2
        assert manifest["config"]["seed"] == 5

    def test_shipped_defaults_match_the_file_parser(self):
        from importlib import resources

        with resources.as_file(resources.files("promptsum") / "defaults.cfg") as path:
            assert shipped_defaults() == load_config_file(path)

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("beam 2\n")
        with pytest.raises(Exception, match="line 1"):
            load_config_file(cfg_file)


class TestBuildPseudo:
    def test_lead_outputs_and_stats(self, corpus_dir):
        _build_pseudo(corpus_dir)
        stats = _read_json(corpus_dir / "pseudo" / "stats.json")
        assert stats["n_records"] == 12
        assert stats["n_built"] + sum(stats["rejections"].values()) == 12
        lines = (corpus_dir / "pseudo" / "pseudo.jsonl").read_text().splitlines()
        assert len(lines) == stats["n_output"]

    def test_pseudo_reloads_with_sentence_structure(self, corpus_dir):
        _build_pseudo(corpus_dir)
        vocab = load_vocab(_vocab(corpus_dir))
        pairs = load_dataset(corpus_dir / "pseudo" / "pseudo.jsonl", vocab, 1024)
        assert any(len(p.document.sentences) > 1 for p in pairs)

    def test_gsg_strategy(self, corpus_dir):
        rc = dispatch([
            "build-pseudo",
            "--data", str(corpus_dir / "train.jsonl"),
            "--vocab", _vocab(corpus_dir),
            "--strategy", "gsg", "--m", "1",
            "--out", str(corpus_dir / "gsg"),
        ])
        assert rc == 0
        stats = _read_json(corpus_dir / "gsg" / "stats.json")
        assert stats["n_built"] > 0

    def test_filter_with_fewshot_records_threshold(self, corpus_dir):
        rc = dispatch([
            "build-pseudo",
            "--data", str(corpus_dir / "train.jsonl"),
            "--vocab", _vocab(corpus_dir),
            "--strategy", "lead", "--lead-n", "1", "--min-sum", "1",
            "--fewshot", str(corpus_dir / "test.jsonl"),
            "--out", str(corpus_dir / "filtered"),
        ])
        assert rc == 0
        stats = _read_json(corpus_dir / "filtered" / "stats.json")
        assert stats["threshold"] is not None
        assert stats["threshold"]["value"] <= stats["threshold"]["epsilon"]
        assert stats["n_output"] <= stats["n_built"]


    def test_fewshot_skipped_records_counted(self, corpus_dir, capsys):
        records = make_lead_corpus(4, seed=1) + [{"document": "A cat sat. A dog ran.", "summary": ""}]
        write_jsonl(corpus_dir / "fewshot.jsonl", records)
        capsys.readouterr()
        _build_pseudo(corpus_dir, extra=["--fewshot", str(corpus_dir / "fewshot.jsonl")])
        assert capsys.readouterr().err == ""  # the count is in the outputs, not a warning
        stats = _read_json(corpus_dir / "pseudo" / "stats.json")
        assert stats["n_fewshot_skipped"] == 1
        assert _read_json(corpus_dir / "pseudo" / "manifest.json")["n_skipped"] == {"fewshot": 1}
        _build_pseudo(corpus_dir)
        assert _read_json(corpus_dir / "pseudo" / "stats.json")["n_fewshot_skipped"] is None

    def test_failed_rewrite_keeps_earlier_outputs(self, corpus_dir, monkeypatch):
        _build_pseudo(corpus_dir)
        out = corpus_dir / "pseudo"
        before = {name: (out / name).read_bytes() for name in ("pseudo.jsonl", "stats.json")}
        render = cli._render_document
        dump = json.dump

        def fail_on_second_record(doc, vocab):
            if fail_on_second_record.calls == 1:
                raise OSError("disk full")
            fail_on_second_record.calls += 1
            return render(doc, vocab)

        def fail_on_stats(obj, fh, **kw):
            if "n_output" in obj:
                fh.write('{\n  "n_records"')
                raise OSError("disk full")
            dump(obj, fh, **kw)

        fail_on_second_record.calls = 0
        for target, name, failing in (
            (cli, "_render_document", fail_on_second_record),
            (json, "dump", fail_on_stats),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(target, name, failing)
                _build_pseudo(corpus_dir, expect=1)
            assert {name: (out / name).read_bytes() for name in before} == before
            assert not [p for p in os.listdir(out) if p.endswith(".tmp")]


class TestTrainingCommands:
    def test_pretrain_writes_checkpoint_and_log(self, corpus_dir):
        _build_pseudo(corpus_dir)
        ckpt = _pretrain(corpus_dir)
        assert os.path.exists(ckpt)
        log = _read_jsonl(corpus_dir / "ckpt" / "train_log.jsonl")
        assert log and {"step", "lr", "loss"} <= set(log[0])

    def test_train_log_records_step_telemetry(self, corpus_dir):
        _build_pseudo(corpus_dir)
        _pretrain(corpus_dir, epochs="1")
        log = _read_jsonl(corpus_dir / "ckpt" / "train_log.jsonl")
        assert log
        for entry in log:
            assert entry["wall_s"] > 0
            assert entry["tokens"] > 0
            assert entry["grad_norm"] > 0

    def test_manifest_records_which_prompts_were_kept(self, corpus_dir, capsys):
        _build_pseudo(corpus_dir)
        capsys.readouterr()
        _pretrain(corpus_dir, epochs="2")
        assert capsys.readouterr().err == ""
        manifest = _read_json(corpus_dir / "ckpt" / "manifest.json")
        assert manifest["selected"] == {"by": "final", "epoch": 2}

        _pretrain(corpus_dir, out="dev", epochs="2", extra=["--dev", str(corpus_dir / "test.jsonl")])
        log = _read_jsonl(corpus_dir / "dev" / "train_log.jsonl")
        scores = [e["dev_rouge1"] for e in log if "epoch" in e]
        selected = _read_json(corpus_dir / "dev" / "manifest.json")["selected"]
        assert selected == {"by": "dev_rouge1", "epoch": scores.index(max(scores)) + 1}

    def test_run_facts_go_to_the_manifest_not_stderr(self, corpus_dir):
        # A prompt longer than the vocabulary, no dev set and an empty record:
        # each is recorded as data, and the run, in a child with Python's
        # default warning filters, writes nothing to stderr.
        _build_pseudo(corpus_dir)
        data = corpus_dir / "pseudo" / "pseudo.jsonl"
        with open(data, "a") as fh:
            fh.write(json.dumps({"document": "A cat sat.", "summary": ""}) + "\n")
        n_vocab = len(load_vocab(_vocab(corpus_dir)))
        argv = _pretrain_argv(corpus_dir, epochs="1", extra=["--prompt-len-en", str(n_vocab + 3)])
        out = _python_m(argv, cwd=corpus_dir)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""
        manifest = _read_json(corpus_dir / "ckpt" / "manifest.json")
        assert manifest["n_skipped"] == {"data": 1}
        assert manifest["selected"]["by"] == "final"
        backbone, _ = load_checkpoint(corpus_dir / "ckpt" / "checkpoint.npz")
        assert manifest["config"]["prompt_len_en"] > backbone.dims.vocab

    def test_failed_log_write_keeps_earlier_log(self, tmp_path):
        from promptsum.cli import _write_train_log

        _write_train_log(tmp_path, [{"step": 1, "loss": 2.0}])
        before = (tmp_path / "train_log.jsonl").read_bytes()
        # The second entry cannot be serialized, so the write fails halfway.
        with pytest.raises(TypeError):
            _write_train_log(tmp_path, [{"step": 1, "loss": 1.5}, {"step": 2, "loss": object()}])
        assert (tmp_path / "train_log.jsonl").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train_log.jsonl"]

    def test_epochs_zero_gives_untrained_checkpoint(self, corpus_dir):
        _build_pseudo(corpus_dir)
        ckpt = _pretrain(corpus_dir, out="untrained", epochs="0")
        assert os.path.exists(ckpt)
        assert (corpus_dir / "untrained" / "train_log.jsonl").read_text() == ""
        assert _read_json(corpus_dir / "untrained" / "manifest.json")["selected"] == {"by": "final", "epoch": 0}
        assert load_checkpoint(ckpt)[0].frozen

    @pytest.mark.parametrize(
        "command, extra, frozen",
        [
            ("pretrain-prompts", ["--dev", "test.jsonl"], True),
            ("pretrain-backbone", [], False),
            ("finetune", ["--dev", "test.jsonl"], True),
            ("finetune", ["--dev", "test.jsonl", "--mode", "full_model"], False),
        ],
        ids=["pretrain-prompts-dev", "pretrain-backbone", "finetune", "finetune-full-model"],
    )
    def test_epochs_zero_records_selection_and_freeze(self, corpus_dir, command, extra, frozen):
        # Zero epochs still apply the mode's freeze or unfreeze and record the
        # final (untrained) prompts as selected, dev set or none.
        extra = [str(corpus_dir / a) if a.endswith(".jsonl") else a for a in extra]
        if command == "pretrain-prompts":
            _build_pseudo(corpus_dir)
            argv = _pretrain_argv(corpus_dir, out="zero", epochs="0", extra=extra)
        else:
            if command == "finetune":
                _build_pseudo(corpus_dir)
                source = ["--checkpoint", _pretrain(corpus_dir, epochs="1")]
                source += ["--train", str(corpus_dir / "train.jsonl")]
            else:
                source = ["--data", str(corpus_dir / "train.jsonl"), *TINY_MODEL]
            argv = [
                command, *source, "--vocab", _vocab(corpus_dir),
                "--epochs", "0", "--batch", "4", "--grad-accum", "1",
                "--peak-lr", "1e-2", "--warmup-steps", "2",
                "--out", str(corpus_dir / "zero"), *extra,
            ]
        assert dispatch(argv) == 0
        assert (corpus_dir / "zero" / "train_log.jsonl").read_text() == ""
        assert _read_json(corpus_dir / "zero" / "manifest.json")["selected"] == {"by": "final", "epoch": 0}
        assert load_checkpoint(corpus_dir / "zero" / "checkpoint.npz")[0].frozen is frozen

    def test_pretrain_backbone_then_prompts(self, corpus_dir):
        rc = dispatch([
            "pretrain-backbone",
            "--data", str(corpus_dir / "train.jsonl"),
            "--vocab", _vocab(corpus_dir),
            *TINY_MODEL,
            "--epochs", "1", "--batch", "4", "--grad-accum", "1",
            "--peak-lr", "1e-3", "--warmup-ratio", "0.1",
            "--out", str(corpus_dir / "bb"),
        ])
        assert rc == 0
        _build_pseudo(corpus_dir)
        ckpt = _pretrain(
            corpus_dir, out="from_bb", epochs="1",
            extra=["--backbone", str(corpus_dir / "bb" / "checkpoint.npz")],
        )
        assert os.path.exists(ckpt)

    def test_finetune_with_fewshot_sampling(self, corpus_dir):
        _build_pseudo(corpus_dir)
        ckpt = _pretrain(corpus_dir, epochs="1")
        rc = dispatch([
            "finetune",
            "--checkpoint", ckpt,
            "--data", str(corpus_dir / "train.jsonl"),
            "--vocab", _vocab(corpus_dir),
            "--fewshot-size", "3",
            "--epochs", "2", "--batch", "3", "--grad-accum", "1",
            "--peak-lr", "1e-2", "--warmup-steps", "2",
            "--seed", "3",
            "--out", str(corpus_dir / "ft"),
        ])
        assert rc == 0
        assert os.path.exists(corpus_dir / "ft" / "checkpoint.npz")

    def test_finetune_with_explicit_splits(self, corpus_dir):
        _build_pseudo(corpus_dir)
        ckpt = _pretrain(corpus_dir, epochs="1")
        rc = dispatch([
            "finetune",
            "--checkpoint", ckpt,
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "test.jsonl"),
            "--vocab", _vocab(corpus_dir),
            "--epochs", "1", "--batch", "4", "--grad-accum", "1",
            "--peak-lr", "1e-2", "--warmup-steps", "2",
            "--out", str(corpus_dir / "ft2"),
        ])
        assert rc == 0


    def test_full_model_checkpoint_is_the_best_dev_epoch(self, corpus_dir):
        # The backbone trains too, so it is restored to the best dev epoch
        # with the prompts: the checkpoint re-scores to that epoch's ROUGE-1.
        _build_pseudo(corpus_dir)
        ckpt = _pretrain(corpus_dir, epochs="1")
        dev = str(corpus_dir / "test.jsonl")
        rc = dispatch([
            "finetune", "--mode", "full_model",
            "--checkpoint", ckpt,
            "--train", str(corpus_dir / "train.jsonl"), "--dev", dev,
            "--vocab", _vocab(corpus_dir),
            "--epochs", "6", "--batch", "4", "--grad-accum", "1",
            "--peak-lr", "0.02", "--warmup-steps", "2", "--seed", "1",
            "--out", str(corpus_dir / "ft_full"),
        ])
        assert rc == 0
        log = _read_jsonl(corpus_dir / "ft_full" / "train_log.jsonl")
        scores = {e["epoch"]: e["dev_rouge1"] for e in log if "epoch" in e}
        selected = _read_json(corpus_dir / "ft_full" / "manifest.json")["selected"]
        assert selected["by"] == "dev_rouge1"
        # A later epoch moved the backbone on, so a backbone left at the last
        # epoch would score differently.
        assert selected["epoch"] < max(scores)
        backbone, prompts = load_checkpoint(corpus_dir / "ft_full" / "checkpoint.npz")
        pairs = load_dataset(dev, load_vocab(_vocab(corpus_dir)))
        assert _dev_rouge1(backbone, prompts, prompts.config, list(pairs)) == scores[selected["epoch"]]


class TestEvalCommands:
    @pytest.fixture
    def checkpoint(self, corpus_dir):
        _build_pseudo(corpus_dir)
        return _pretrain(corpus_dir, epochs="2")

    def test_evaluate_reports_counts(self, corpus_dir, checkpoint, tmp_path):
        two = tmp_path / "two.jsonl"
        write_jsonl(two, make_lead_corpus(2, seed=9))
        rc = dispatch([
            "evaluate", "--checkpoint", checkpoint,
            "--data", str(two), "--vocab", _vocab(corpus_dir),
            "--beam", "2", "--max-len", "8",
            "--out", str(corpus_dir / "eval"),
        ])
        assert rc == 0
        report = _read_json(corpus_dir / "eval" / "report.json")
        assert report["n_examples"] == 2
        assert 0.0 <= report["r1_f1"] <= 1.0
        assert report["ppl"] > 0
        preds = (corpus_dir / "eval" / "predictions.jsonl").read_text().splitlines()
        assert len(preds) == 2
        assert "text" in json.loads(preds[0])

    @pytest.mark.parametrize("command", ["evaluate", "zero-shot"])
    def test_report_counts_skipped_records(self, corpus_dir, checkpoint, tmp_path, command, capsys):
        data = tmp_path / "with_empty.jsonl"
        write_jsonl(data, make_lead_corpus(2, seed=9) + [{"document": "", "summary": "A cat sat."}])
        capsys.readouterr()
        rc = dispatch([
            command, "--checkpoint", checkpoint,
            "--data", str(data), "--vocab", _vocab(corpus_dir),
            "--beam", "1", "--max-len", "4",
            "--out", str(tmp_path / "eval"),
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""
        report = _read_json(tmp_path / "eval" / "report.json")
        assert (report["n_examples"], report["n_skipped"]) == (2, 1)
        assert _read_json(tmp_path / "eval" / "manifest.json")["n_skipped"] == {"data": 1}

    def test_generate_writes_predictions(self, corpus_dir, checkpoint):
        rc = dispatch([
            "generate", "--checkpoint", checkpoint,
            "--data", str(corpus_dir / "test.jsonl"), "--vocab", _vocab(corpus_dir),
            "--beam", "1", "--max-len", "6",
            "--out", str(corpus_dir / "gen"),
        ])
        assert rc == 0
        preds = (corpus_dir / "gen" / "predictions.jsonl").read_text().splitlines()
        assert len(preds) == 4

    def test_vocab_mismatch_rejected(self, corpus_dir, checkpoint, tmp_path, capsys):
        write_jsonl(tmp_path / "other.jsonl", [{"document": "Completely different words here.", "summary": "words"}])
        rc = dispatch(["build-vocab", "--data", str(tmp_path / "other.jsonl"), "--out", str(tmp_path / "ov")])
        assert rc == 0
        rc = dispatch([
            "evaluate", "--checkpoint", checkpoint,
            "--data", str(corpus_dir / "test.jsonl"),
            "--vocab", str(tmp_path / "ov" / "vocab.txt"),
            "--out", str(corpus_dir / "mismatch"),
        ])
        assert rc == 1
        assert "vocab" in capsys.readouterr().err

    def test_zero_shot_missing_checkpoint(self, corpus_dir, capsys):
        missing = corpus_dir / "missing.npz"
        rc = dispatch([
            "zero-shot", "--checkpoint", str(missing),
            "--data", str(corpus_dir / "test.jsonl"), "--vocab", _vocab(corpus_dir),
            "--out", str(corpus_dir / "zs"),
        ])
        assert rc == 1
        assert f"error: --checkpoint {missing}: no such file" in capsys.readouterr().err
        assert not (corpus_dir / "zs").exists()

    def test_zero_shot_runs(self, corpus_dir, checkpoint):
        rc = dispatch([
            "zero-shot", "--checkpoint", checkpoint,
            "--data", str(corpus_dir / "test.jsonl"), "--vocab", _vocab(corpus_dir),
            "--beam", "2", "--max-len", "8",
            "--out", str(corpus_dir / "zs"),
        ])
        assert rc == 0
        assert (corpus_dir / "zs" / "report.json").exists()

    def test_probe_attention(self, corpus_dir, checkpoint):
        rc = dispatch([
            "probe-attention", "--checkpoint", checkpoint,
            "--data", str(corpus_dir / "test.jsonl"), "--vocab", _vocab(corpus_dir),
            "--index", "1",
            "--out", str(corpus_dir / "probe"),
        ])
        assert rc == 0
        with open(corpus_dir / "probe" / "attention.txt") as fh:
            header = json.loads(fh.readline())
        assert header["len_de"] == 4
        assert header["len_en"] == 4
        matrix = np.loadtxt(corpus_dir / "probe" / "attention.txt", skiprows=1)
        assert matrix.shape == (header["rows"], header["cols"])
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-5)

    def test_probe_index_out_of_range(self, corpus_dir, checkpoint, capsys):
        rc = dispatch([
            "probe-attention", "--checkpoint", checkpoint,
            "--data", str(corpus_dir / "test.jsonl"), "--vocab", _vocab(corpus_dir),
            "--index", "99",
            "--out", str(corpus_dir / "probe2"),
        ])
        assert rc == 1
        assert "out of range" in capsys.readouterr().err


def _ablate(corpus_dir, extra=()):
    return dispatch([
        "ablate",
        "--data", str(corpus_dir / "train.jsonl"), "--vocab", _vocab(corpus_dir),
        *TINY_MODEL,
        "--prompt-len-en", "3", "--prompt-len-de", "3",
        "--fewshot-size", "2",
        "--epochs", "1", "--batch", "2", "--grad-accum", "1",
        "--peak-lr", "1e-2", "--warmup-steps", "2",
        "--beam", "1", "--max-len", "4",
        "--k-grid", "5,10",
        "--seed", "2",
        "--out", str(corpus_dir / "ablate"),
        *extra,
    ])


class TestAblate:
    def test_grid_rows(self, corpus_dir):
        assert _ablate(corpus_dir) == 0
        rows = _read_json(corpus_dir / "ablate" / "ablation.json")
        variants = [r["variant"] for r in rows]
        assert variants[:4] == [
            "placement=encoder_only", "placement=decoder_only", "placement=both", "shared",
        ]
        assert "strategy=interval" in variants
        assert "fixed_k k=5" in variants and "fixed_k k=10" in variants
        assert len(rows) == 10
        tsv = (corpus_dir / "ablate" / "ablation.tsv").read_text().splitlines()
        assert tsv[0].split("\t") == ["variant", "r1_f1", "r2_f1", "rl_f1", "trainable_params"]
        assert len(tsv) == 11
        # shared halves the prompt-pair parameters relative to placement=both
        by_name = {r["variant"]: r for r in rows}
        assert by_name["shared"]["trainable_params"] * 2 == by_name["placement=both"]["trainable_params"]

    def test_full_model_variants_start_from_one_backbone(self, corpus_dir, monkeypatch):
        starts = []
        real = cli.run_stage

        def spy(data, dev, state, backbone, config):
            starts.append(backbone.checksum())
            return real(data, dev, state, backbone, config)

        monkeypatch.setattr(cli, "run_stage", spy)
        assert _ablate(corpus_dir, ["--mode", "full_model"]) == 0
        # Ten rows, eight prompt configs: placement=both is strategy=none, and
        # "fixed_k k=10" is strategy=fixed_k at the default k of 10.
        assert len(starts) == 8
        assert len(set(starts)) == 1
        rows = _read_json(corpus_dir / "ablate" / "ablation.json")
        scores = {r["variant"]: (r["r1_f1"], r["r2_f1"], r["rl_f1"]) for r in rows}
        assert scores["placement=both"] == scores["strategy=none"]


    def test_full_model_rows_count_the_backbone(self, corpus_dir, monkeypatch):
        sizes = set()
        real = cli.run_stage

        def spy(data, dev, state, backbone, config):
            sizes.add(backbone.size())
            return real(data, dev, state, backbone, config)

        monkeypatch.setattr(cli, "run_stage", spy)
        assert _ablate(corpus_dir, ["--mode", "full_model", "--out", str(corpus_dir / "full")]) == 0
        assert _ablate(corpus_dir) == 0
        (size,) = sizes
        full = _read_json(corpus_dir / "full" / "ablation.json")
        prompt_only = _read_json(corpus_dir / "ablate" / "ablation.json")
        assert [r["variant"] for r in full] == [r["variant"] for r in prompt_only]
        for f, p in zip(full, prompt_only):
            assert f["trainable_params"] == size + p["trainable_params"], f["variant"]


class TestStageSettings:
    """Flags, the --config file and the shipped defaults meet in resolve_config: a
    training flag sets its command's stage keys, and run_stage trains with them."""

    @pytest.fixture
    def run(self, corpus_dir, monkeypatch):
        """Runs a training command with run_stage stubbed out; gives the exit code,
        the TrainConfig of every run_stage call and the manifest's config."""
        seen = []

        def stub(data, dev, state, backbone, config):
            seen.append(config)
            return state

        monkeypatch.setattr(cli, "run_stage", stub)
        vocab = load_vocab(_vocab(corpus_dir))
        backbone = init_backbone(ModelDims(d=16, layers=1, heads=2, ffn=24, vocab=len(vocab), max_pos=96), seed=0)
        ckpt = str(corpus_dir / "ckpt.npz")
        save_checkpoint(ckpt, backbone, init_prompts(PromptConfig(len_en=4, len_de=4, strategy="none"), backbone, 0))
        extra = {
            "pretrain-backbone": TINY_MODEL,
            "pretrain-prompts": TINY_MODEL + TINY_PROMPTS,
            "finetune": ["--checkpoint", ckpt, "--fewshot-size", "2"],
            "ablate": TINY_MODEL + TINY_PROMPTS + ["--fewshot-size", "2", "--beam", "1", "--max-len", "4"],
        }

        runs = itertools.count()

        def run(command, *flags):
            seen.clear()
            out = corpus_dir / f"out{next(runs)}"
            rc = dispatch([
                command, "--data", str(corpus_dir / "train.jsonl"), "--vocab", _vocab(corpus_dir),
                *extra[command], *flags, "--out", str(out),
            ])
            config = _read_json(out / "manifest.json")["config"] if out.exists() else None
            return rc, list(seen), config

        return run

    @pytest.mark.parametrize(
        "command, stage",
        [
            ("pretrain-backbone", "pretrain"), ("pretrain-prompts", "pretrain"),
            ("finetune", "finetune"), ("ablate", "finetune"),
        ],
    )
    @pytest.mark.parametrize("warmup", [("--warmup-steps", "4"), ("--warmup-ratio", "0.3")])
    def test_each_training_flag_reaches_run_stage(self, run, command, stage, warmup):
        rc, seen, config = run(
            command, "--epochs", "3", "--peak-lr", "0.02", *warmup, "--batch", "3", "--grad-accum", "2", "--seed", "5",
        )
        assert rc == 0 and seen
        steps, ratio = (4, None) if warmup[0] == "--warmup-steps" else (None, 0.3)
        for tc in seen:
            assert (tc.epochs, tc.peak_lr, tc.warmup_steps, tc.warmup_ratio) == (3, 0.02, steps, ratio)
            assert (tc.batch, tc.grad_accum, tc.seed) == (3, 2, 5)
        assert (config[f"{stage}_epochs"], config[f"{stage}_peak_lr"]) == (3, 0.02)

    def test_manifest_records_the_stage_settings(self, run):
        rc, seen, config = run("pretrain-prompts", "--epochs", "7", "--warmup-steps", "5")
        assert rc == 0
        assert (config["pretrain_epochs"], config["pretrain_warmup_steps"]) == (7, 5)
        assert "pretrain_warmup_ratio" not in config
        # The other stage keeps its defaults.
        assert (config["finetune_epochs"], config["finetune_warmup_steps"]) == (400, 100)
        [tc] = seen
        assert (tc.epochs, tc.warmup_steps, tc.warmup_ratio) == (7, 5, None)

    @pytest.mark.parametrize(
        "lines, flags, kept",
        [
            ("finetune_warmup_ratio = 0.25", [], {"ratio": 0.25}),
            ("finetune_warmup_ratio = 0.25", ["--warmup-steps", "3"], {"steps": 3}),
            ("finetune_warmup_steps = 7", [], {"steps": 7}),
            ("finetune_warmup_steps = 7", ["--warmup-ratio", "0.5"], {"ratio": 0.5}),
            ("pretrain_warmup_steps = 7", [], {"steps": 100}),  # another stage's key
        ],
    )
    def test_a_layer_setting_one_warmup_drops_the_other(self, run, tmp_path, lines, flags, kept):
        (tmp_path / "run.cfg").write_text(lines + "\n")
        rc, seen, config = run("finetune", "--config", str(tmp_path / "run.cfg"), *flags)
        assert rc == 0
        [tc] = seen
        assert (tc.warmup_steps, tc.warmup_ratio) == (kept.get("steps"), kept.get("ratio"))
        prefix = "finetune_warmup_"
        assert {key.removeprefix(prefix): value for key, value in config.items() if key.startswith(prefix)} == kept

    @pytest.mark.parametrize(
        "lines, flags, named",
        [
            (None, ["--warmup-steps", "2", "--warmup-ratio", "0.1"], "error: give one of --warmup-steps and --warmup-ratio"),
            (
                "finetune_warmup_steps = 2\nfinetune_warmup_ratio = 0.1", [],
                "run.cfg: give one of finetune_warmup_steps and finetune_warmup_ratio",
            ),
        ],
        ids=["flags", "config"],
    )
    def test_both_warmups_in_one_layer_is_one_error_line(self, run, tmp_path, capsys, lines, flags, named):
        if lines:
            (tmp_path / "run.cfg").write_text(lines + "\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        rc, seen, config = run("finetune", *flags)
        assert rc == 1 and not seen
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{named}, not both" in err
        assert config is None  # refused before the output directory is made

    def test_pretrain_commands_fix_their_mode(self, run, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("mode = full_model\n")
        expected = {"pretrain-prompts": "prompt_only", "pretrain-backbone": "full_model", "finetune": "full_model"}
        for command, mode in expected.items():
            rc, seen, config = run(command, "--config", str(tmp_path / "run.cfg"))
            assert rc == 0, command
            assert seen[0].mode == config["mode"] == mode, command
        rc, _, _ = run("pretrain-prompts", "--mode", "full_model")
        assert rc == 1
        assert "unrecognized arguments: --mode" in capsys.readouterr().err


class TestDataErrors:
    def test_malformed_line_error_names_line(self, corpus_dir, capsys):
        bad = corpus_dir / "bad.jsonl"
        bad.write_text('{"document": "The cat sat.", "summary": "cat"}\n{broken\n')
        rc = dispatch(["build-vocab", "--data", str(bad), "--out", str(corpus_dir / "bv")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err
