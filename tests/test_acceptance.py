"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in a few minutes on a laptop CPU.
"""

import itertools
import json
import math

import numpy as np
import pytest

from promptsum.cli import dispatch
from promptsum.corpus import Document, EOS_ID
from promptsum.decoding import beam_search, greedy_decode, sequence_logprob
from promptsum.evaluation import export_attention, quadrant_sums
from promptsum.model import (
    ModelDims,
    PromptConfig,
    assign_inner_prompts,
    count_trainable_params,
    init_backbone,
    init_prompts,
)
from promptsum.pseudodata import (
    REASON_SOURCE_SHORTER,
    Rejection,
    build_lead_pair,
    compute_filter_threshold,
    filter_pseudo,
    select_gsg_indices,
)
from promptsum.rouge import rouge_l_f1, rouge_n_f1
from promptsum.training import (
    TrainConfig,
    batch_mean_nll,
    grad_check,
    init_train_state,
    train_step,
)

from conftest import make_doc, make_lead_corpus, make_pair, random_document, tiny_model, write_jsonl
from test_rouge import oracle_lcs, oracle_rouge_n


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {number:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_parameter_accounting():
    main = count_trainable_params(
        PromptConfig(len_en=100, len_de=100, strategy="sequential", n_max=61), d=768
    )
    encoder_only_prompt = count_trainable_params(
        PromptConfig(len_en=100, len_de=0, strategy="none"), d=768
    )
    _report(
        1,
        "parameter accounting",
        main == 201_216 and encoder_only_prompt == 76_800,
        f"main={main} prompt-tuning={encoder_only_prompt}",
    )


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_gradient_fidelity():
    rng = np.random.default_rng(0)
    worst = 0.0
    configs = []
    for strategy in ("interval", "sequential", "fixed_k"):
        configs.append({"strategy": strategy})
        configs.append({"strategy": strategy, "shared": True, "len_en": 2, "len_de": 2})
        configs.append({"strategy": strategy, "encoder_only": True})
        configs.append({"strategy": strategy, "decoder_only": True})
    for i, kw in enumerate(configs):
        kw.setdefault("k", 3)
        backbone, prompts, config = tiny_model(seed=i, vocab=20, prompt_seed=100 + i, **kw)
        doc = random_document(rng, vocab=20, max_sentences=3, max_len=4)
        pair = make_pair(doc, [int(v) for v in rng.integers(4, 20, size=3)])
        err = grad_check(backbone, prompts, config, pair, n_coords=50, seed=i)
        worst = max(worst, err)
    _report(2, "gradient fidelity", worst < 1e-4, f"max rel err {worst:.2e} over {len(configs)} configs")


# -- 3 ----------------------------------------------------------------------


def _eight_pair_corpus(seed=1, n=8):
    """Template summaries over a 20-token vocabulary; summary tokens also
    appear as the document's first sentence."""
    rng = np.random.default_rng(seed)
    nouns = list(range(5, 11))
    verbs = list(range(11, 15))
    pairs = []
    for _ in range(n):
        noun1, noun2 = rng.choice(nouns, size=2)
        verb = rng.choice(verbs)
        summary = [4, int(noun1), int(verb), 4, int(noun2), 19]
        filler = [int(v) for v in rng.integers(15, 19, size=4)]
        pairs.append(make_pair(make_doc(summary, filler), summary))
    return pairs


def test_criterion_03_frozen_invariance():
    dims = ModelDims(d=32, layers=2, heads=4, ffn=64, vocab=20, max_pos=64)
    backbone = init_backbone(dims, seed=0)
    config = PromptConfig(len_en=8, len_de=8, strategy="sequential", n_max=4)
    prompts = init_prompts(config, backbone, seed=1)
    backbone.freeze()
    checksum = backbone.checksum()
    tc = TrainConfig(
        mode="prompt_only", peak_lr=1e-2, warmup_steps=20, epochs=1, batch=8, grad_accum=1, seed=0
    )
    state = init_train_state(prompts, backbone, tc)
    pairs = _eight_pair_corpus()
    for _ in range(100):
        state, _ = train_step(state, backbone, pairs, tc)
    _report(3, "frozen invariance", backbone.checksum() == checksum, "100 steps, sha256 unchanged")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_optimization_sanity():
    dims = ModelDims(d=32, layers=2, heads=4, ffn=64, vocab=20, max_pos=64)
    eight = _eight_pair_corpus(seed=1)

    # Desk-scale stand-in for a pretrained backbone: train it full-model on a
    # disjoint synthetic corpus, then freeze it for prompt-only adaptation.
    pretrain_data = _eight_pair_corpus(seed=99, n=32)
    backbone = init_backbone(dims, seed=0)
    none_config = PromptConfig(len_en=0, len_de=0, strategy="none")
    none_prompts = init_prompts(none_config, backbone, seed=0)
    tc_backbone = TrainConfig(
        mode="full_model", peak_lr=3e-3, warmup_steps=100, epochs=1, batch=8, grad_accum=1, seed=0
    )
    state = init_train_state(none_prompts, backbone, tc_backbone)
    rng = np.random.default_rng(0)
    for _ in range(300):
        idx = rng.permutation(len(pretrain_data))[:8]
        state, _ = train_step(state, backbone, [pretrain_data[i] for i in idx], tc_backbone)

    config = PromptConfig(len_en=8, len_de=8, strategy="sequential", n_max=4)
    prompts = init_prompts(config, backbone, seed=1)
    backbone.freeze()
    tc = TrainConfig(
        mode="prompt_only", peak_lr=2e-2, warmup_steps=50, epochs=1, batch=8, grad_accum=1, seed=0
    )
    state = init_train_state(prompts, backbone, tc)
    initial = batch_mean_nll(backbone, prompts, config, eight)[0].item()
    for _ in range(500):
        state, _ = train_step(state, backbone, eight, tc)
    final = batch_mean_nll(backbone, prompts, config, eight)[0].item()
    prompt_ok = final <= 0.5 * initial

    # Full-model overfit: fresh random backbone must reach NLL < 0.1.
    backbone2 = init_backbone(dims, seed=2)
    config2 = PromptConfig(len_en=8, len_de=8, strategy="sequential", n_max=4)
    prompts2 = init_prompts(config2, backbone2, seed=3)
    tc2 = TrainConfig(
        mode="full_model", peak_lr=3e-3, warmup_steps=100, epochs=1, batch=8, grad_accum=1, seed=0
    )
    state2 = init_train_state(prompts2, backbone2, tc2)
    steps = 0
    nll = batch_mean_nll(backbone2, prompts2, config2, eight)[0].item()
    while steps < 2000 and nll >= 0.1:
        state2, _ = train_step(state2, backbone2, eight, tc2)
        steps += 1
        if steps % 50 == 0:
            nll = batch_mean_nll(backbone2, prompts2, config2, eight)[0].item()
    full_ok = nll < 0.1
    _report(
        4,
        "optimization sanity",
        prompt_ok and full_ok,
        f"prompt_only {initial:.3f}->{final:.3f}, full_model nll {nll:.3f} @ {steps} steps",
    )


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_rouge_oracle():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(1000):
        a = list(rng.integers(0, 4, size=rng.integers(0, 9)))
        b = list(rng.integers(0, 4, size=rng.integers(0, 9)))
        if rouge_n_f1(a, b, 1) != oracle_rouge_n(a, b, 1):
            mismatches += 1
        if rouge_n_f1(a, b, 2) != oracle_rouge_n(a, b, 2):
            mismatches += 1
        lcs = oracle_lcs(a, b)
        if a and b:
            p, r = lcs / len(a), lcs / len(b)
            expected_l = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
        else:
            expected_l = 0.0
        if rouge_l_f1(a, b) != expected_l:
            mismatches += 1
    _report(5, "rouge oracle", mismatches == 0, "1000 pairs, exact match")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_gsg_oracle():
    pool = [(4, 5), (4, 6), (5, 6, 7), (8,)]
    checked = 0
    bad = 0
    for n in range(2, 7):
        for sents in itertools.product(pool, repeat=n):
            doc = Document(sents)
            scores = [
                oracle_rouge_n(
                    list(sents[i]),
                    [t for j, s in enumerate(sents) if j != i for t in s],
                    1,
                )
                for i in range(n)
            ]
            for m in range(1, n):
                remaining = list(range(n))
                expected = []
                for _ in range(m):
                    best = max(remaining, key=lambda i: (scores[i], -i))
                    expected.append(best)
                    remaining.remove(best)
                checked += 1
                if select_gsg_indices(doc, m) != sorted(expected):
                    bad += 1
    _report(6, "gap-selection oracle", bad == 0, f"{checked} (document, m) cases")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_filter_correctness():
    # five pairs engineered to known summary/document ROUGE-1 values
    fixtures = [
        (make_doc([4, 5, 6, 7]), (4, 30, 31, 32, 33, 34), 0.2),  # P=1/6 R=1/4
        (make_doc([4, 5, 6, 7]), (4,), 0.4),                     # P=1   R=1/4
        (make_doc([4, 5, 6, 7, 8, 9]), (4, 5), 0.5),             # P=1   R=1/3
        (make_doc([4, 5, 6, 7, 8]), (4, 5, 6, 30, 31), 0.6),     # P=3/5 R=3/5
        (make_doc([4, 5]), (4, 5), 1.0),
    ]
    pairs = [make_pair(doc, summary) for doc, summary, _ in fixtures]
    expected_scores = [r for _, _, r in fixtures]
    epsilon = sum(expected_scores) / 5
    sigma2 = sum((r - epsilon) ** 2 for r in expected_scores) / 5

    threshold = compute_filter_threshold(pairs)
    stats_ok = (
        abs(threshold.epsilon - epsilon) < 1e-12
        and abs(threshold.sigma2 - sigma2) < 1e-12
        and abs(threshold.threshold - (epsilon - sigma2)) < 1e-12
    )
    kept = filter_pseudo(pairs, threshold)
    retained_ok = all(
        rouge_n_f1(p.summary_content, p.document.flat, 1) >= threshold.threshold for p in kept
    )
    expected_kept = [
        p
        for p in pairs
        if rouge_n_f1(p.summary_content, p.document.flat, 1) >= threshold.threshold
    ]
    _report(
        7,
        "filter correctness",
        stats_ok and retained_ok and kept == expected_kept,
        f"eps={threshold.epsilon:.4f} sigma2={threshold.sigma2:.5f}",
    )


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_lead_construction():
    def uniform(n, length):
        sents, tok = [], 4
        for _ in range(n):
            sents.append(tuple(range(tok, tok + length)))
            tok += length
        return Document(tuple(sents))

    # 10 sentences x 20 tokens: first three make a 60-token summary (>= 50).
    doc_a = uniform(10, 20)
    pair = build_lead_pair(doc_a, lead_n=3, min_sum=50, target_sum=70)
    trace_a = (
        not isinstance(pair, Rejection)
        and pair.summary_content == doc_a.flat[:60]
        and pair.document.sentences == doc_a.sentences[3:]
    )

    # 10 sentences x 10 tokens: summary grows to 7 sentences (70 tokens),
    # leaving a 30-token source -> rejected as shorter than its summary.
    result = build_lead_pair(uniform(10, 10), lead_n=3, min_sum=50, target_sum=70)
    trace_b = isinstance(result, Rejection) and result.reason == REASON_SOURCE_SHORTER

    _report(8, "lead construction traces", trace_a and trace_b)


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_inner_prompt_assignment():
    rng = np.random.default_rng(9)
    bad = 0
    for trial in range(500):
        doc = random_document(rng, vocab=30, max_sentences=8, max_len=7)
        n_max = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        lengths = doc.sentence_lengths()

        interval = assign_inner_prompts(
            doc, PromptConfig(strategy="interval", len_en=1, len_de=1)
        )
        offset = 0
        for i, length in enumerate(lengths):
            if not np.all(interval[offset : offset + length] == i % 2):
                bad += 1
            offset += length

        sequential = assign_inner_prompts(
            doc, PromptConfig(strategy="sequential", len_en=1, len_de=1, n_max=n_max)
        )
        offset = 0
        for i, length in enumerate(lengths):
            if not np.all(sequential[offset : offset + length] == min(i, n_max)):
                bad += 1
            offset += length

        fixed = assign_inner_prompts(
            doc, PromptConfig(strategy="fixed_k", len_en=1, len_de=1, k=k, n_max=n_max)
        )
        if fixed.shape != (doc.flat_length,):
            bad += 1
        expected = np.minimum(np.arange(doc.flat_length) // k, n_max)
        if not np.array_equal(fixed, expected):
            bad += 1
    _report(9, "inner-prompt assignment", bad == 0, "500 random documents")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_beam_properties():
    rng = np.random.default_rng(0)
    equal = 0
    for seed in range(20):
        backbone, prompts, config = tiny_model(
            seed=seed, d=16, ffn=24, vocab=12, prompt_seed=seed + 9999, strategy="none"
        )
        doc = make_doc([int(v) for v in rng.integers(4, 12, size=5)])
        g = greedy_decode(backbone, prompts, config, doc, max_len=6)
        b = beam_search(backbone, prompts, config, doc, beam=1, max_len=6)
        equal += g == b
    beam1_ok = equal == 20

    rng = np.random.default_rng(0)
    dominated = 0
    stopping_ok = True
    for seed in range(50):
        backbone, prompts, config = tiny_model(
            seed=seed, d=16, ffn=24, vocab=12, prompt_seed=seed + 9999, strategy="none"
        )
        doc = make_doc([int(v) for v in rng.integers(4, 12, size=6)])
        g = greedy_decode(backbone, prompts, config, doc, max_len=6)
        b = beam_search(backbone, prompts, config, doc, beam=4, max_len=6)
        sg = sequence_logprob(backbone, prompts, config, doc, g)
        sb = sequence_logprob(backbone, prompts, config, doc, b)
        dominated += sb >= sg - 1e-12
        for out in (g, b):
            if len(out) > 6 or (EOS_ID in out and out.index(EOS_ID) != len(out) - 1):
                stopping_ok = False
    _report(
        10,
        "beam properties",
        beam1_ok and dominated == 50 and stopping_ok,
        f"beam1==greedy {equal}/20, beam4>=greedy {dominated}/50",
    )


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_attention_probe(tmp_path):
    backbone, prompts, config = tiny_model(
        d=16, ffn=24, layers=2, len_en=4, len_de=3, strategy="interval"
    )
    pair = make_pair(make_doc([4, 5, 6], [7, 8]), [9, 10, 11])
    record = export_attention(backbone, prompts, config, pair, tmp_path / "attention.txt")
    n_rows = 3 + 1 + 4  # P_de + BOS + summary incl. EOS
    n_cols = 4 + 5
    shape_ok = record.matrix.shape == (n_rows, n_cols)
    rows_ok = np.allclose(record.matrix.sum(axis=1), 1.0, atol=1e-5)
    bounds_ok = record.len_de == 3 and record.len_en == 4
    partition_ok = abs(sum(quadrant_sums(record).values()) - n_rows) < 1e-4
    _report(
        11,
        "attention probe",
        shape_ok and rows_ok and bounds_ok and partition_ok,
        f"shape {record.matrix.shape}",
    )


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_pipeline_smoke(tmp_path):
    model_flags = [
        "--d", "32", "--layers", "2", "--heads", "4", "--ffn", "64", "--max-pos", "96",
        "--prompt-len-en", "8", "--prompt-len-de", "8", "--strategy", "interval",
    ]
    trained_scores, untrained_scores = [], []
    for seed in (1, 2, 3):
        base = tmp_path / f"seed{seed}"
        base.mkdir()
        write_jsonl(base / "train.jsonl", make_lead_corpus(40, seed=100 + seed))
        write_jsonl(base / "test.jsonl", make_lead_corpus(10, seed=200 + seed))
        assert dispatch(["build-vocab", "--data", str(base / "train.jsonl"), "--out", str(base / "v")]) == 0
        vocab = str(base / "v" / "vocab.txt")
        assert dispatch([
            "build-pseudo", "--data", str(base / "train.jsonl"), "--vocab", vocab,
            "--strategy", "lead", "--lead-n", "1", "--min-sum", "1",
            "--out", str(base / "pseudo"),
        ]) == 0
        common = ["--vocab", vocab, "--max-src-tokens", "80"]
        for arm, epochs in (("trained", "25"), ("untrained", "0")):
            assert dispatch([
                "pretrain-prompts", "--data", str(base / "pseudo" / "pseudo.jsonl"),
                *common, *model_flags, "--backbone-seed", str(seed),
                "--epochs", epochs, "--batch", "4", "--grad-accum", "1",
                "--peak-lr", "2e-2", "--warmup-ratio", "0.1",
                "--seed", str(seed),
                "--out", str(base / arm),
            ]) == 0
            assert dispatch([
                "zero-shot", "--checkpoint", str(base / arm / "checkpoint.npz"),
                "--data", str(base / "test.jsonl"), *common,
                "--beam", "4", "--max-len", "12",
                "--out", str(base / f"eval_{arm}"),
            ]) == 0
            report = json.loads((base / f"eval_{arm}" / "report.json").read_text())
            (trained_scores if arm == "trained" else untrained_scores).append(report["r1_f1"])
    mean_trained = float(np.mean(trained_scores))
    mean_untrained = float(np.mean(untrained_scores))
    _report(
        12,
        "pipeline smoke (zero-shot ordering)",
        mean_trained > mean_untrained,
        f"trained r1 {mean_trained:.3f} vs untrained {mean_untrained:.3f} over 3 seeds",
    )


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_shared_prompt_halving():
    d = 768
    separate = count_trainable_params(PromptConfig(len_en=100, len_de=100, strategy="none"), d=d)
    shared = count_trainable_params(
        PromptConfig(len_en=100, len_de=100, strategy="none", shared=True), d=d
    )
    count_ok = shared == separate - d * 100

    # gradient aliasing: shared tensor accumulates the sum of both gradients
    from promptsum import autodiff as ad
    from promptsum.model import forward

    backbone, shared_prompts, shared_config = tiny_model(
        len_en=3, len_de=3, shared=True, strategy="none", prompt_seed=5
    )
    sep_config = PromptConfig(len_en=3, len_de=3, strategy="none")
    sep_prompts = init_prompts(sep_config, backbone, seed=5)
    sep_prompts.p_de.data[...] = sep_prompts.p_en.data
    shared_prompts.p_en.data[...] = sep_prompts.p_en.data
    doc = make_doc([4, 5, 6])
    targets = np.array([7, 8, EOS_ID])

    def grads(prompts, config):
        for t in prompts.named_tensors().values():
            t.zero_grad()
        res = forward(backbone, prompts, config, doc, targets[:-1].tolist())
        loss, n = ad.cross_entropy_sum(res.logits, targets)
        ad.scale(loss, 1.0 / n).backward()
        return prompts

    shared_prompts = grads(shared_prompts, shared_config)
    sep_prompts = grads(sep_prompts, sep_config)
    alias_ok = np.allclose(
        shared_prompts.p_en.grad,
        sep_prompts.p_en.grad + sep_prompts.p_de.grad,
        atol=1e-12,
    )
    _report(
        13,
        "shared-prompt halving",
        count_ok and alias_ok,
        f"separate={separate} shared={shared}",
    )
