"""Report assembly, perplexity, and the attention export format."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from promptsum import autodiff as ad
from promptsum import decoding, evaluation
from promptsum.corpus import EOS_ID
from promptsum.decoding import Generation, greedy_decode
from promptsum.evaluation import (
    config_fingerprint,
    evaluate,
    export_attention,
    generate_predictions,
    perplexity,
    quadrant_sums,
    read_attention,
    write_predictions,
)
from promptsum.model import LengthOverflowError, decode_logits, encode_source
from promptsum.rouge import rouge_score
from promptsum.model import forward

from conftest import make_doc, make_pair, tiny_model


def _zeroed_model(**kw):
    """All-zero backbone: every softmax is uniform, logits are flat."""
    backbone, prompts, config = tiny_model(**kw)
    for t in backbone.params.values():
        t.data[...] = 0.0
    for t in prompts.named_tensors().values():
        t.data[...] = 0.0
    return backbone, prompts, config


def _stub_beam(monkeypatch, decode):
    """Make ``decode(document)`` the beam search's output, at logp -1 per token."""

    def fake(backbone, prompts, config, src, beam, max_len):
        ids = decode(src)
        return Generation(ids, -float(len(ids)))

    monkeypatch.setattr(evaluation, "beam_search", fake)


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        backbone, prompts, config = _zeroed_model(vocab=20)
        pairs = [(make_doc([4, 5]), [6, 7, EOS_ID])]
        assert perplexity(backbone, prompts, config, pairs) == pytest.approx(20.0, rel=1e-9)

    def test_near_deterministic_model_approaches_one(self):
        backbone, prompts, config = _zeroed_model(vocab=12)
        # constant decoder output (final LN shift) aligned with one embedding row
        backbone.params["dec/ln/beta"].data[...] = 1.0
        backbone.embed.data[EOS_ID] = 50.0
        doc = make_doc([4, 5])
        gen = greedy_decode(backbone, prompts, config, doc, max_len=4)
        assert gen == [EOS_ID]
        ppl = perplexity(backbone, prompts, config, [(doc, gen)])
        assert ppl == pytest.approx(1.0, abs=1e-6)

    def test_hand_computed_three_token_case(self):
        backbone, prompts, config = tiny_model(seed=5)
        doc = make_doc([4, 5, 6])
        gen = [7, 8, EOS_ID]
        enc = encode_source(backbone, prompts, config, doc)
        logits, _ = decode_logits(backbone, prompts, config, enc, gen[:-1])
        expected = 0.0
        for t, tok in enumerate(gen):
            row = logits.data[t]
            expected += math.log(np.exp(row - row.max()).sum()) + row.max() - row[tok]
        expected = math.exp(expected / 3)
        assert perplexity(backbone, prompts, config, [(doc, gen)]) == pytest.approx(expected, rel=1e-12)

    def test_token_weighted_mean_over_pairs(self):
        backbone, prompts, config = tiny_model(seed=6)
        doc_a, gen_a = make_doc([4]), [7, EOS_ID]
        doc_b, gen_b = make_doc([5, 6]), [8, 9, 10, EOS_ID]
        joint = perplexity(backbone, prompts, config, [(doc_a, gen_a), (doc_b, gen_b)])
        nll_a = math.log(perplexity(backbone, prompts, config, [(doc_a, gen_a)])) * 2
        nll_b = math.log(perplexity(backbone, prompts, config, [(doc_b, gen_b)])) * 4
        assert joint == pytest.approx(math.exp((nll_a + nll_b) / 6), rel=1e-10)

    def test_matches_exp_nll_loss_on_single_pair(self):
        backbone, prompts, config = tiny_model(seed=7)
        doc = make_doc([4, 5])
        gen = [6, 7, EOS_ID]
        res = forward(backbone, prompts, config, doc, gen[:-1])
        total, n = ad.cross_entropy_sum(res.logits, gen)
        assert perplexity(backbone, prompts, config, [(doc, gen)]) == pytest.approx(
            math.exp(total.item() / n), rel=1e-12
        )

    def test_empty_generation_rejected(self):
        backbone, prompts, config = tiny_model()
        with pytest.raises(ValueError):
            perplexity(backbone, prompts, config, [(make_doc([4]), [])])


class TestEvaluateRouge:
    def test_forced_copy_scores_one(self, monkeypatch):
        backbone, prompts, config = tiny_model()
        test = [make_pair(make_doc([4, 5, 6]), [4, 5]) for _ in range(3)]
        summary = {id(pair.document): list(pair.summary) for pair in test}
        _stub_beam(monkeypatch, lambda doc: summary[id(doc)])
        report, records = evaluate(backbone, prompts, config, test)
        assert (report.r1_f1, report.r2_f1, report.rl_f1) == (1.0, 1.0, 1.0)
        assert report.n_examples == 3
        assert [rec["token_ids"] for rec in records] == [list(pair.summary) for pair in test]
        # Perplexity is read from each winner's logp: -1 per token.
        assert report.ppl == pytest.approx(math.e, rel=1e-12)

    def test_mean_of_perfect_and_disjoint(self, monkeypatch):
        backbone, prompts, config = tiny_model()
        test = [
            make_pair(make_doc([4, 5]), [4, 5]),
            make_pair(make_doc([6, 7]), [6, 7]),
        ]
        summary = {id(pair.document): list(pair.summary) for pair in test}
        _stub_beam(
            monkeypatch, lambda doc: summary[id(doc)] if doc.flat[0] == 4 else [10, 11, EOS_ID]
        )
        report, _ = evaluate(backbone, prompts, config, test)
        assert report.r1_f1 == pytest.approx(0.5)

    def test_empty_test_set_rejected(self):
        backbone, prompts, config = tiny_model()
        with pytest.raises(ValueError):
            evaluate(backbone, prompts, config, [])

    def test_report_matches_recomputation_from_predictions(self, tmp_path):
        backbone, prompts, config = tiny_model(seed=9)
        test = [
            make_pair(make_doc([4, 5, 6]), [4, 5]),
            make_pair(make_doc([7, 8]), [7]),
        ]
        report, records = evaluate(backbone, prompts, config, test, beam=2, max_len=4)
        path = tmp_path / "predictions.jsonl"
        write_predictions(path, records)
        reloaded = [json.loads(line) for line in path.read_text().splitlines()]
        rescored = []
        for rec, pair in zip(reloaded, test):
            cand = [t for t in rec["token_ids"] if t != EOS_ID]
            rescored.append(rouge_score(cand, list(pair.summary_content)))
        assert report.r1_f1 == pytest.approx(np.mean([s.r1_f1 for s in rescored]))
        assert report.r2_f1 == pytest.approx(np.mean([s.r2_f1 for s in rescored]))
        assert report.rl_f1 == pytest.approx(np.mean([s.rl_f1 for s in rescored]))
        assert all(rec["r1"] == pytest.approx(s.r1_f1) for rec, s in zip(reloaded, rescored))

    def test_fingerprint_tracks_config(self):
        backbone, prompts, config = tiny_model()
        fp1 = config_fingerprint(backbone, config, beam=4, max_len=256)
        fp2 = config_fingerprint(backbone, config, beam=4, max_len=256)
        fp3 = config_fingerprint(backbone, config, beam=2, max_len=256)
        assert fp1 == fp2 != fp3


class TestAttentionExport:
    def test_shape_row_sums_and_quadrants(self, tmp_path):
        backbone, prompts, config = tiny_model(len_en=3, len_de=2)
        pair = make_pair(make_doc([4, 5], [6, 7, 8]), [9, 10])
        path = tmp_path / "attention.txt"
        record = export_attention(backbone, prompts, config, pair, path)
        n_rows = 2 + 1 + 3  # P_de + BOS + summary tokens (incl. EOS)
        n_cols = 3 + 5
        assert record.matrix.shape == (n_rows, n_cols)
        np.testing.assert_allclose(record.matrix.sum(axis=1), 1.0, atol=1e-5)
        sums = quadrant_sums(record)
        assert sum(sums.values()) == pytest.approx(n_rows, abs=1e-4)

    def test_file_round_trip(self, tmp_path):
        backbone, prompts, config = tiny_model(len_en=2, len_de=2)
        pair = make_pair(make_doc([4, 5]), [6])
        path = tmp_path / "attention.txt"
        record = export_attention(backbone, prompts, config, pair, path)
        loaded = read_attention(path)
        np.testing.assert_allclose(loaded.matrix, record.matrix, rtol=1e-15)
        assert loaded.row_labels == record.row_labels
        assert loaded.col_labels == record.col_labels
        assert (loaded.len_de, loaded.len_en) == (record.len_de, record.len_en)
        assert (loaded.layers, loaded.heads) == (1, 2)

    def test_failed_export_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        backbone, prompts, config = tiny_model(len_en=2, len_de=2)
        path = tmp_path / "attention.txt"
        export_attention(backbone, prompts, config, make_pair(make_doc([4, 5]), [6]), path)
        before = path.read_bytes()
        real = evaluation.forward

        def last_value_unformattable(*args):
            result = real(*args)
            matrix = result.attention.matrix.astype(object)
            matrix[-1, -1] = None  # fails once every earlier row is written
            return replace(result, attention=replace(result.attention, matrix=matrix))

        monkeypatch.setattr(evaluation, "forward", last_value_unformattable)
        with pytest.raises(TypeError):
            export_attention(backbone, prompts, config, make_pair(make_doc([7, 8]), [9]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["attention.txt"]

    def test_header_is_machine_readable(self, tmp_path):
        backbone, prompts, config = tiny_model(len_en=2, len_de=1)
        pair = make_pair(make_doc([4]), [5])
        path = tmp_path / "attention.txt"
        export_attention(backbone, prompts, config, pair, path)
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["len_de"] == 1
        assert header["len_en"] == 2
        assert header["rows"] == 1 + 1 + 2
        assert header["cols"] == 2 + 1


class TestGeneratePredictions:
    def test_detokenized_text_included_with_vocab(self, monkeypatch):
        from promptsum.corpus import build_vocab

        vocab = build_vocab(["alpha beta gamma delta"])
        backbone, prompts, config = tiny_model(vocab=len(vocab))
        test = [make_pair(make_doc([4, 5]), [4])]
        _stub_beam(monkeypatch, lambda doc: [4, EOS_ID])
        records = generate_predictions(backbone, prompts, config, test, vocab=vocab)
        assert records[0]["text"] == vocab.id_to_token[4]
        assert records[0]["token_ids"] == [4, EOS_ID]


def test_encoder_overflow_rejected_before_any_document_is_encoded(monkeypatch):
    # len_en 3 + 61 source tokens = 64 = max_pos fits; the third document's 62 do not.
    backbone, prompts, config = tiny_model(max_pos=64)
    test = [make_pair(make_doc([4, 5]), [6]), make_pair(make_doc([5] * 61), [6]),
            make_pair(make_doc([6] * 30, [7] * 32), [6])]

    def unreachable(*args):
        raise AssertionError("encoded before the length check")

    monkeypatch.setattr(decoding, "encode_source", unreachable)
    with pytest.raises(LengthOverflowError, match=r"test document 2: encoder length 65 .*max_pos 64"):
        generate_predictions(backbone, prompts, config, test, beam=2, max_len=3)


def test_failed_write_keeps_earlier_predictions(tmp_path):
    path = tmp_path / "predictions.jsonl"
    write_predictions(path, [{"id": 0, "token_ids": [4, EOS_ID]}])
    before = path.read_bytes()
    # The second record cannot be serialized, so the write fails halfway.
    with pytest.raises(TypeError):
        write_predictions(path, [{"id": 0, "token_ids": [5]}, {"id": 1, "token_ids": object()}])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["predictions.jsonl"]
