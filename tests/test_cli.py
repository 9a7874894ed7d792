"""End-to-end subcommand behavior: manifests, locking, errors, and outputs."""

import json
import os

import numpy as np
import pytest

from promptsum import cli
from promptsum.cli import dispatch, load_config_file, shipped_defaults
from promptsum.corpus import load_dataset, load_vocab

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


def _pretrain(corpus_dir, out="ckpt", epochs="4", extra=()):
    rc = dispatch([
        "pretrain-prompts",
        "--data", str(corpus_dir / "pseudo" / "pseudo.jsonl"),
        "--vocab", _vocab(corpus_dir),
        *TINY_MODEL, *TINY_PROMPTS,
        "--epochs", epochs, "--batch", "4", "--grad-accum", "1",
        "--peak-lr", "1e-2", "--warmup-ratio", "0.1",
        "--seed", "1",
        "--out", str(corpus_dir / out),
        *extra,
    ])
    assert rc == 0
    return str(corpus_dir / out / "checkpoint.npz")


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
        import subprocess
        import sys

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

    def test_filter_requires_fewshot(self, corpus_dir, capsys):
        rc = dispatch([
            "build-pseudo",
            "--data", str(corpus_dir / "train.jsonl"),
            "--vocab", _vocab(corpus_dir),
            "--strategy", "lead", "--filter",
            "--out", str(corpus_dir / "nofew"),
        ])
        assert rc == 1
        assert "fewshot" in capsys.readouterr().err

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


    def test_fewshot_skipped_records_counted(self, corpus_dir):
        records = make_lead_corpus(4, seed=1) + [{"document": "A cat sat. A dog ran.", "summary": ""}]
        write_jsonl(corpus_dir / "fewshot.jsonl", records)
        with pytest.warns(UserWarning, match="skipped 1"):
            _build_pseudo(corpus_dir, extra=["--fewshot", str(corpus_dir / "fewshot.jsonl")])
        stats = _read_json(corpus_dir / "pseudo" / "stats.json")
        assert stats["n_fewshot_skipped"] == 1
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
        import warnings

        _build_pseudo(corpus_dir)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _pretrain(corpus_dir, epochs="2")
        assert not [w for w in caught if "no dev set" in str(w.message)]
        assert capsys.readouterr().err == ""
        manifest = _read_json(corpus_dir / "ckpt" / "manifest.json")
        assert manifest["selected"] == {"by": "final", "epoch": 2}

        _pretrain(corpus_dir, out="dev", epochs="2", extra=["--dev", str(corpus_dir / "test.jsonl")])
        log = _read_jsonl(corpus_dir / "dev" / "train_log.jsonl")
        scores = [e["dev_rouge1"] for e in log if "epoch" in e]
        selected = _read_json(corpus_dir / "dev" / "manifest.json")["selected"]
        assert selected == {"by": "dev_rouge1", "epoch": scores.index(max(scores)) + 1}

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
    def test_report_counts_skipped_records(self, corpus_dir, checkpoint, tmp_path, command):
        data = tmp_path / "with_empty.jsonl"
        write_jsonl(data, make_lead_corpus(2, seed=9) + [{"document": "", "summary": "A cat sat."}])
        with pytest.warns(UserWarning, match="skipped 1"):
            rc = dispatch([
                command, "--checkpoint", checkpoint,
                "--data", str(data), "--vocab", _vocab(corpus_dir),
                "--beam", "1", "--max-len", "4",
                "--out", str(tmp_path / "eval"),
            ])
        assert rc == 0
        report = _read_json(tmp_path / "eval" / "report.json")
        assert (report["n_examples"], report["n_skipped"]) == (2, 1)

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
        rc = dispatch([
            "zero-shot", "--checkpoint", str(corpus_dir / "missing.npz"),
            "--data", str(corpus_dir / "test.jsonl"), "--vocab", _vocab(corpus_dir),
            "--out", str(corpus_dir / "zs"),
        ])
        assert rc == 1
        assert "missing pretrained-prompts checkpoint" in capsys.readouterr().err

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


class TestAblate:
    def test_grid_rows(self, corpus_dir):
        rc = dispatch([
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
        ])
        assert rc == 0
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


class TestDataErrors:
    def test_malformed_line_error_names_line(self, corpus_dir, capsys):
        bad = corpus_dir / "bad.jsonl"
        bad.write_text('{"document": "The cat sat.", "summary": "cat"}\n{broken\n')
        rc = dispatch(["build-vocab", "--data", str(bad), "--out", str(corpus_dir / "bv")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err
