"""The three workloads: set-up, one operation, and the checks on its output.

Each workload writes its inputs from the seed (untimed, not part of set-up),
sets up the way a user of the package would (vocab, dataset, frozen
backbone, prompts), then runs operations through the public API:

- ``train``: one ``training.train_step`` per operation, batches drawn the way
  ``training.run_stage`` draws them.
- ``generate``: one ``evaluation.evaluate`` call (beam 4, max_len 20) per
  document.
- ``ingest``: one round per operation: ``cli.dispatch`` of ``build-vocab`` and
  then a filtered ``build-pseudo --strategy gsg`` on a fresh corpus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from collections import Counter

import numpy as np

import gen
from promptsum import cli, corpus, decoding, evaluation, model, training

# Bench config (ROADMAP Baseline): frozen d=64 backbone, 100+100 prompts.
DIMS = dict(d=64, layers=2, heads=4, ffn=128, max_pos=1152)
PROMPTS = dict(len_en=100, len_de=100, strategy="sequential", n_max=10)
BATCH = 8
TRAIN_PAIRS = 64
PEAK_LR = 3e-4
WARMUP_STEPS = 100
BEAM = 4
MAX_LEN = 20
GENERATE_DOCS = 96
INGEST_DOCS = 300
FEWSHOT_DOCS = 32

LOSS_RTOL = 1e-12
PPL_RTOL = 1e-10


def _model(vocab, seed: int):
    dims = model.ModelDims(vocab=len(vocab), **DIMS)
    backbone = model.init_backbone(dims, seed)
    backbone.freeze()
    pconfig = model.PromptConfig(**PROMPTS)
    return backbone, model.init_prompts(pconfig, backbone, seed), pconfig


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """One operation kind. ``subops`` names the parts an operation counts as."""

    name = ""
    subops: tuple[str, ...] = ("op",)
    reference_keys: tuple[str, ...] = ()

    def __init__(self, work_dir: str, seed: int) -> None:
        self.work_dir = work_dir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def write_inputs(self) -> None:
        """Generate the seed's inputs; neither timed nor part of set-up."""

    def setup(self) -> None:
        """Everything a user does before the first operation."""

    def prepare(self, i: int) -> None:
        """Untimed per-operation input generation."""

    def op(self, i: int) -> tuple[int, dict]:
        """Run operation ``i``; return (items processed, output to check)."""
        raise NotImplementedError

    def check(self, i: int, output: dict) -> dict[str, list[str]]:
        """Problems with operation ``i``'s output, keyed by sub-operation."""
        return {}

    def collect(self, output: dict) -> dict:
        """Untimed: reduce an operation's output to what the checks read."""
        return output

    def compare(self, output: dict, ref: dict) -> dict[str, list[str]]:
        """Differences from the stored reference output."""
        return {}

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts read from the outputs rather than from spans."""
        return {}


class Train(Workload):
    name = "train"
    reference_keys = ("loss",)

    def write_inputs(self) -> None:
        gen.write_vocab(self.path("vocab.txt"))
        gen.write_pairs(self.path("train.jsonl"), gen.seed_rng(self.seed, "train"), TRAIN_PAIRS)

    def setup(self) -> None:
        vocab = corpus.load_vocab(self.path("vocab.txt"))
        self.data = corpus.load_dataset(self.path("train.jsonl"), vocab)
        self.backbone, prompts, _ = _model(vocab, self.seed)
        self.config = training.TrainConfig(
            mode="prompt_only",
            peak_lr=PEAK_LR,
            warmup_steps=WARMUP_STEPS,
            batch=BATCH,
            grad_accum=1,
            seed=self.seed,
        )
        self.state = training.init_train_state(prompts, self.backbone, self.config)
        self.checksum = self.backbone.checksum()
        # run_stage: one permutation per epoch from rng(seed), batch-sized slices.
        self.rng = np.random.default_rng(self.config.seed)
        self.steps_per_epoch = math.ceil(len(self.data) / BATCH)
        self.perm = None

    def op(self, i: int) -> tuple[int, dict]:
        s = i % self.steps_per_epoch
        if s == 0:
            self.perm = self.rng.permutation(len(self.data))
        batch = [self.data[j] for j in self.perm[s * BATCH : (s + 1) * BATCH]]
        self.state, loss = training.train_step(self.state, self.backbone, batch, self.config)
        return sum(len(p.summary) for p in batch), {"loss": loss}

    def check(self, i: int, output: dict) -> dict[str, list[str]]:
        problems = []
        if not math.isfinite(output["loss"]):
            problems.append(f"loss {output['loss']} is not finite")
        if self.backbone.checksum() != self.checksum:
            problems.append("frozen backbone changed")
            self.checksum = self.backbone.checksum()
        return {"op": problems} if problems else {}

    def compare(self, output: dict, ref: dict) -> dict[str, list[str]]:
        err = _rel_err(output["loss"], ref["loss"])
        if err > LOSS_RTOL:
            return {"op": [f"loss {output['loss']!r} vs reference {ref['loss']!r} (rel {err:.3g})"]}
        return {}


def _rouge_n(cand, ref, n: int) -> float:
    c = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
    r = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    nc, nr = sum(c.values()), sum(r.values())
    if not nc or not nr:
        return 0.0
    hit = sum((c & r).values())
    p, q = hit / nc, hit / nr
    return 0.0 if p + q == 0 else 2 * p * q / (p + q)


def _rouge_l(cand, ref) -> float:
    if not cand or not ref:
        return 0.0
    table = [[0] * (len(ref) + 1) for _ in range(len(cand) + 1)]
    for i, a in enumerate(cand):
        for j, b in enumerate(ref):
            table[i + 1][j + 1] = table[i][j] + 1 if a == b else max(table[i][j + 1], table[i + 1][j])
    lcs = table[-1][-1]
    p, q = lcs / len(cand), lcs / len(ref)
    return 0.0 if p + q == 0 else 2 * p * q / (p + q)


class Generate(Workload):
    name = "generate"
    reference_keys = ("ids", "r1", "r2", "rl", "ppl")

    def write_inputs(self) -> None:
        gen.write_vocab(self.path("vocab.txt"))
        gen.write_pairs(self.path("test.jsonl"), gen.seed_rng(self.seed, "generate"), GENERATE_DOCS)

    def setup(self) -> None:
        vocab = corpus.load_vocab(self.path("vocab.txt"))
        self.vocab_size = len(vocab)
        self.test = corpus.load_dataset(self.path("test.jsonl"), vocab)
        self.backbone, self.prompts, self.pconfig = _model(vocab, self.seed)

    def op(self, i: int) -> tuple[int, dict]:
        pair = self.test[i % len(self.test)]
        report, records = evaluation.evaluate(
            self.backbone, self.prompts, self.pconfig, [pair], beam=BEAM, max_len=MAX_LEN
        )
        rec = records[0]
        output = {"ids": rec["token_ids"], "r1": rec["r1"], "r2": rec["r2"], "rl": rec["rl"]}
        output["ppl"] = report.ppl
        output["report"] = (report.r1_f1, report.r2_f1, report.rl_f1, report.n_examples)
        return len(rec["token_ids"]), output

    def check(self, i: int, output: dict) -> dict[str, list[str]]:
        pair = self.test[i % len(self.test)]
        ids = output["ids"]
        problems = []
        if not 1 <= len(ids) <= MAX_LEN or not all(0 <= t < self.vocab_size for t in ids):
            problems.append(f"token ids out of range: {ids}")
        elif corpus.EOS_ID in ids[:-1]:
            problems.append("EOS before the end of the summary")
        else:
            cand = [t for t in ids if t != corpus.EOS_ID]
            ref = list(pair.summary_content)
            want = (_rouge_n(cand, ref, 1), _rouge_n(cand, ref, 2), _rouge_l(cand, ref))
            got = (output["r1"], output["r2"], output["rl"])
            if got != want or output["report"] != (*want, 1):
                problems.append(f"ROUGE {got} / report {output['report']} vs recomputed {want}")
            logp = decoding.sequence_logprob(
                self.backbone, self.prompts, self.pconfig, pair.document, ids
            )
            ppl = math.exp(-logp / len(ids))
            if _rel_err(output["ppl"], ppl) > PPL_RTOL:
                problems.append(f"ppl {output['ppl']!r} vs rescored {ppl!r}")
        return {"op": problems} if problems else {}

    def compare(self, output: dict, ref: dict) -> dict[str, list[str]]:
        problems = []
        if output["ids"] != ref["ids"]:
            problems.append(f"token ids {output['ids']} vs reference {ref['ids']}")
        for key in ("r1", "r2", "rl"):
            if output[key] != ref[key]:
                problems.append(f"{key} {output[key]!r} vs reference {ref[key]!r}")
        if _rel_err(output["ppl"], ref["ppl"]) > PPL_RTOL:
            problems.append(f"ppl {output['ppl']!r} vs reference {ref['ppl']!r}")
        return {"op": problems} if problems else {}


STAT_KEYS = ("n_records", "n_unreadable", "n_built", "rejections", "n_output")


class Ingest(Workload):
    name = "ingest"
    subops = ("build-vocab", "build-pseudo")
    reference_keys = ("vocab_size", "stats", "pseudo_sha256")

    built = kept = 0

    def layer_counts(self) -> dict[str, float]:
        return {"pseudodata.kept_share": self.kept / self.built if self.built else 0.0}

    def write_inputs(self) -> None:
        # The filter threshold comes from these references, so they share the
        # corpus's length mix: short ones alone would reject every long pair.
        gen.write_ingest_corpus(
            self.path("fewshot.jsonl"), gen.seed_rng(self.seed, "fewshot"), FEWSHOT_DOCS
        )

    def prepare(self, i: int) -> None:
        self.corpus = self.path(f"corpus{i}.jsonl")
        self.n_tokens = gen.write_ingest_corpus(
            self.corpus, gen.seed_rng(self.seed, "ingest", i), INGEST_DOCS
        )

    def _dispatch(self, argv: list[str]) -> tuple[int, str]:
        """Run one subcommand; its console output is kept, not printed."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.dispatch(argv)
        return code, buf.getvalue()

    def op(self, i: int) -> tuple[int, dict]:
        vocab_dir, pseudo_dir = self.path(f"vocab{i}"), self.path(f"pseudo{i}")
        output: dict = {}
        output["build-vocab"] = self._dispatch(
            ["build-vocab", "--data", self.corpus, "--out", vocab_dir]
        )
        output["build-pseudo"] = self._dispatch(
            [
                "build-pseudo",
                "--data", self.corpus,
                "--vocab", os.path.join(vocab_dir, "vocab.txt"),
                "--strategy", "gsg",
                "--fewshot", self.path("fewshot.jsonl"),
                "--out", pseudo_dir,
            ]
        )
        # The written files are read after the timed region, by collect().
        self.dirs = vocab_dir, pseudo_dir
        return INGEST_DOCS, output

    def collect(self, output: dict) -> dict:
        """Reduce the written files to what is checked, then delete them."""
        vocab_dir, pseudo_dir = self.dirs
        result = {"codes": [output[s][0] for s in self.subops], "log": [output[s][1] for s in self.subops]}
        try:
            with open(os.path.join(vocab_dir, "vocab.txt"), encoding="utf-8") as fh:
                result["vocab_size"] = sum(1 for _ in fh)
            with open(os.path.join(pseudo_dir, "stats.json"), encoding="utf-8") as fh:
                stats = json.load(fh)
            result["stats"] = {key: stats[key] for key in STAT_KEYS}
            with open(os.path.join(pseudo_dir, "pseudo.jsonl"), "rb") as fh:
                data = fh.read()
            result["pseudo_lines"] = data.count(b"\n")
            result["pseudo_sha256"] = hashlib.sha256(data).hexdigest()
        except (OSError, KeyError, ValueError) as exc:
            result["read_error"] = repr(exc)
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        os.remove(self.corpus)
        return result

    def check(self, i: int, output: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}

        def fail(sub: str, msg: str) -> None:
            problems.setdefault(sub, []).append(msg)

        for sub, code, log in zip(self.subops, output["codes"], output["log"]):
            if code != 0:
                fail(sub, f"exit code {code}: {log.strip()}")
        if "read_error" in output:
            fail("build-pseudo", f"outputs unreadable: {output['read_error']}")
            return problems
        if output["vocab_size"] != len(corpus.RESERVED_TOKENS) + self.n_tokens:
            fail("build-vocab", f"vocab has {output['vocab_size']} rows, corpus has {self.n_tokens} tokens")
        stats = output["stats"]
        built = stats["n_built"]
        self.built += built
        self.kept += stats["n_output"]
        if stats["n_records"] != INGEST_DOCS or stats["n_unreadable"] != 0:
            fail("build-pseudo", f"read {stats['n_records']} records, {stats['n_unreadable']} unreadable")
        if built + sum(stats["rejections"].values()) != stats["n_records"]:
            fail("build-pseudo", f"built + rejected != records: {stats}")
        if not 0 < stats["n_output"] < built:
            fail("build-pseudo", f"kept share {stats['n_output']}/{built} is not strictly in (0, 1)")
        if output["pseudo_lines"] != stats["n_output"]:
            fail("build-pseudo", f"pseudo.jsonl has {output['pseudo_lines']} lines, stats say {stats['n_output']}")
        return problems

    def compare(self, output: dict, ref: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        if output.get("vocab_size") != ref["vocab_size"]:
            problems["build-vocab"] = [f"vocab size {output.get('vocab_size')} vs reference {ref['vocab_size']}"]
        if output.get("stats") != ref["stats"] or output.get("pseudo_sha256") != ref["pseudo_sha256"]:
            problems["build-pseudo"] = [
                f"stats {output.get('stats')} / digest {output.get('pseudo_sha256')} vs reference"
            ]
        return problems


WORKLOADS = {w.name: w for w in (Train, Generate, Ingest)}
