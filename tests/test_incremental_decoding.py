"""Incremental (KV-cached) decoding checked against the full re-decode it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsum import decoding
from promptsum.corpus import EOS_ID
from promptsum.decoding import _log_softmax, _next_logprobs, beam_search, greedy_decode
from promptsum.evaluation import evaluate, perplexity
from promptsum.model import LengthOverflowError, decode_logits, encode_source

from conftest import make_doc, make_pair, tiny_model

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def models(draw):
    """A random tiny model, a document for it, and its vocabulary size."""
    vocab = draw(st.integers(8, 14))
    kw = dict(
        seed=draw(st.integers(0, 10_000)),
        vocab=vocab,
        d=draw(st.sampled_from([8, 16])),
        layers=draw(st.integers(1, 2)),
        len_en=draw(st.integers(0, 3)),
        len_de=draw(st.integers(0, 3)),
        strategy=draw(st.sampled_from(["none", "sequential"])),
    )
    words = st.lists(st.integers(4, vocab - 1), min_size=1, max_size=4)
    doc = make_doc(*draw(st.lists(words, min_size=1, max_size=3)))
    return tiny_model(**kw), doc, vocab


def _uncached_logprobs(backbone, prompts, config, enc, prefix):
    logits, _ = decode_logits(backbone, prompts, config, enc, prefix)
    return _log_softmax(logits.data[-1])


def reference_beam_search(backbone, prompts, config, src, beam, max_len):
    """Beam search as it was before the cache: every hypothesis re-runs the
    whole decoder each step, and candidates are sorted as Python tuples."""
    enc = encode_source(backbone, prompts, config, src)
    beams = [((), 0.0, False)]
    best_finished = None
    while any(not done and len(ids) < max_len for ids, _, done in beams):
        candidates = []
        for slot, (ids, logp, done) in enumerate(beams):
            if done or len(ids) >= max_len:
                candidates.append(((ids, logp, done), logp, ids[-1] if ids else -1, slot))
                continue
            logprobs = _uncached_logprobs(backbone, prompts, config, enc, ids)
            for token, lp in enumerate(logprobs):
                score = logp + float(lp)
                candidates.append(((ids + (token,), score, token == EOS_ID), score, token, slot))
        candidates.sort(key=lambda c: (-c[1], c[2], c[3]))
        beams = [c[0] for c in candidates[:beam]]
        for hyp in beams:
            if hyp[2] and (best_finished is None or hyp[1] > best_finished[1]):
                best_finished = hyp
    if best_finished is not None:
        return list(best_finished[0])
    return list(max(beams, key=lambda h: h[1])[0])


class TestCachedRows:
    @SETTINGS
    @given(models(), st.data())
    def test_cached_row_matches_full_decode(self, model, data):
        (backbone, prompts, config), doc, vocab = model
        enc = encode_source(backbone, prompts, config, doc)
        fresh = encode_source(backbone, prompts, config, doc)
        tokens = st.integers(0, vocab - 1)
        base = data.draw(st.lists(tokens, max_size=5))
        # Prefixes of one sequence in any order (so the nearest cached
        # ancestor may be any shorter one), plus unrelated ones from scratch.
        order = data.draw(st.permutations(range(len(base) + 1)))
        prefixes = [base[:n] for n in order] + data.draw(st.lists(st.lists(tokens, max_size=4), max_size=2))
        for prefix in prefixes:
            cached = _next_logprobs(backbone, prompts, config, enc, prefix)
            full = _uncached_logprobs(backbone, prompts, config, fresh, prefix)
            np.testing.assert_allclose(cached, full, rtol=0, atol=1e-12)

    @SETTINGS
    @given(models())
    def test_call_from_scratch_is_the_teacher_forced_pass(self, model):
        (backbone, prompts, config), doc, _ = model
        enc = encode_source(backbone, prompts, config, doc)
        prefix = [4, 5, 6]
        cached, _ = decode_logits(backbone, prompts, config, enc, prefix, cache=enc.cache)
        full, _ = decode_logits(backbone, prompts, config, enc, prefix)
        assert cached.data.tobytes() == full.data.tobytes()

    @SETTINGS
    @given(models(), st.lists(st.integers(4, 7), min_size=1, max_size=5))
    def test_cached_tensors_are_detached(self, model, prefix):
        (backbone, prompts, config), doc, _ = model
        enc = encode_source(backbone, prompts, config, doc)
        for n in range(len(prefix) + 1):
            _next_logprobs(backbone, prompts, config, enc, prefix[:n])
        cached = [t for kv in enc.cache.cross for t in kv]
        cached += [t for entry in enc.cache.prefixes.values() for kv in entry for t in kv]
        assert cached
        assert all(t._parents == () and t._backward is None for t in cached)

    def test_retain_keeps_only_the_nearest_ancestors(self):
        backbone, prompts, config = tiny_model(seed=2)
        enc = encode_source(backbone, prompts, config, make_doc([4, 5]))
        for prefix in [(), (4,), (4, 5), (6,)]:
            _next_logprobs(backbone, prompts, config, enc, prefix)
        enc.cache.retain([(4, 5, 9), (6, 7)])
        assert set(enc.cache.prefixes) == {(4, 5), (6,)}
        enc.cache.retain([])
        assert enc.cache.prefixes == {}


class TestBeamAgainstReference:
    @SETTINGS
    @given(models(), st.sampled_from([1, 2, 4]), st.integers(1, 6))
    def test_same_ids_as_uncached_beam(self, model, beam, max_len):
        (backbone, prompts, config), doc, _ = model
        got = beam_search(backbone, prompts, config, doc, beam=beam, max_len=max_len)
        assert got == reference_beam_search(backbone, prompts, config, doc, beam, max_len)

    def test_equal_scores_break_on_token_before_slot(self, monkeypatch):
        # [4, 7] (slot 0) and [5, 6] (slot 1) score exactly the same; the
        # lower token id wins the tie even though it comes from a later slot.
        def row(probs):
            out = np.full(10, 1e-9)
            for token, p in probs.items():
                out[token] = p
            return np.log(out)

        table = {(): row({4: 0.45, 5: 0.45}), (4,): row({7: 0.5}), (5,): row({6: 0.5})}
        monkeypatch.setattr(decoding, "_next_logprobs", lambda b, p, c, e, prefix: table[tuple(prefix)])
        backbone, prompts, config = tiny_model(vocab=10)
        assert beam_search(backbone, prompts, config, make_doc([4]), beam=2, max_len=2) == [5, 6]

    def test_cache_holds_at_most_beam_prefixes(self, monkeypatch):
        encoded = []

        def capture(*args):
            encoded.append(encode_source(*args))
            return encoded[-1]

        monkeypatch.setattr(decoding, "encode_source", capture)
        backbone, prompts, config = tiny_model(seed=4, vocab=12)
        beam_search(backbone, prompts, config, make_doc([4, 5, 6]), beam=3, max_len=6)
        assert len(encoded[0].cache.prefixes) <= 3

    @SETTINGS
    @given(models(), st.integers(1, 3), st.sampled_from([1, 3]))
    def test_evaluate_ppl_matches_rescoring(self, model, n_pairs, beam):
        (backbone, prompts, config), doc, _ = model
        test = [make_pair(doc, [4 + i]) for i in range(n_pairs)]
        report, records = evaluate(backbone, prompts, config, test, beam=beam, max_len=5)
        pairs = [(pair.document, rec["token_ids"]) for pair, rec in zip(test, records)]
        assert report.ppl == pytest.approx(perplexity(backbone, prompts, config, pairs), rel=1e-10)

    def test_generation_logp_is_the_sequence_logprob(self):
        backbone, prompts, config = tiny_model(seed=11, vocab=12)
        doc = make_doc([4, 5, 6])
        gen = beam_search(backbone, prompts, config, doc, beam=2, max_len=5)
        assert gen.logp == pytest.approx(
            decoding.sequence_logprob(backbone, prompts, config, doc, gen), rel=1e-10
        )


class TestLengthCheck:
    def _no_eos(self, monkeypatch):
        real = decoding._next_logprobs

        def never_eos(*args):
            row = real(*args).copy()
            row[EOS_ID] = -math.inf
            return row

        monkeypatch.setattr(decoding, "_next_logprobs", never_eos)

    @pytest.mark.parametrize("decode", ["greedy", "beam"])
    def test_longest_reachable_max_len_runs(self, monkeypatch, decode):
        # len_de + 1 + (max_len - 1) = 2 + 6 = max_pos decoder rows.
        backbone, prompts, config = tiny_model(max_pos=8, len_en=0, len_de=2)
        self._no_eos(monkeypatch)
        doc = make_doc([4, 5])
        if decode == "greedy":
            out = greedy_decode(backbone, prompts, config, doc, max_len=6)
        else:
            out = beam_search(backbone, prompts, config, doc, beam=2, max_len=6)
        assert len(out) == 6

    @pytest.mark.parametrize("decode", ["greedy", "beam"])
    def test_overflow_raised_before_encoding(self, monkeypatch, decode):
        backbone, prompts, config = tiny_model(max_pos=8, len_en=0, len_de=2)

        def unreachable(*args):
            raise AssertionError("encoded before the length check")

        monkeypatch.setattr(decoding, "encode_source", unreachable)
        doc = make_doc([4, 5])
        with pytest.raises(LengthOverflowError, match="max_pos 8"):
            if decode == "greedy":
                greedy_decode(backbone, prompts, config, doc, max_len=7)
            else:
                beam_search(backbone, prompts, config, doc, beam=2, max_len=7)
