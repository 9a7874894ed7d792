"""Incremental (KV-cached) decoding checked against the full re-decode it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsum import autodiff as ad
from promptsum import decoding
from promptsum.autodiff import Tensor
from promptsum.corpus import EOS_ID
from promptsum.decoding import (
    Generation,
    Hypothesis,
    _check_lengths,
    _log_softmax,
    _next_logprobs,
    beam_search,
    greedy_decode,
)
from promptsum.evaluation import evaluate, perplexity
from promptsum.model import (
    DecoderCache,
    LengthOverflowError,
    _attention,
    _causal_mask,
    decode_logits,
    encode_source,
)

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


def _stepped_logprobs(backbone, prompts, config, enc, ids):
    """Next-token log-probabilities after ``ids``, from a fresh cache stepped
    along ``ids`` one token at a time."""
    cache = DecoderCache()
    for n in range(len(ids) + 1):
        logprobs = _next_logprobs(backbone, prompts, config, enc, cache, [ids[:n]])[0]
    return logprobs


def per_hypothesis_beam_search(backbone, prompts, config, src, beam, max_len):
    """Beam search as it was before the batched step: every live hypothesis
    is scored on its own, by cached single-row decoder steps along its ids."""
    _check_lengths(backbone, config, max_len)
    enc = encode_source(backbone, prompts, config, src)
    beams = [Hypothesis((), 0.0, False)]
    best_finished = None

    def extendable(hyp):
        return not hyp.finished and len(hyp.ids) < max_len

    while any(extendable(h) for h in beams):
        scores, tokens, slots = [], [], []
        for slot, hyp in enumerate(beams):
            if extendable(hyp):
                logprobs = _stepped_logprobs(backbone, prompts, config, enc, hyp.ids)
                scores.append(hyp.logp + logprobs)
                tokens.append(np.arange(len(logprobs)))
            else:
                scores.append(np.array([hyp.logp]))
                tokens.append(np.array([hyp.ids[-1] if hyp.ids else -1]))
            slots.append(np.full(len(tokens[-1]), slot))
        score, token, slot_of = (np.concatenate(a) for a in (scores, tokens, slots))
        if score.size > beam:
            kth = np.partition(score, score.size - beam)[score.size - beam]
            keep = np.flatnonzero(~(score < kth))
            score, token, slot_of = score[keep], token[keep], slot_of[keep]
        order = np.lexsort((slot_of, token, -score))[:beam]

        chosen = []
        for i in order:
            parent = beams[slot_of[i]]
            if extendable(parent):
                tok = int(token[i])
                parent = Hypothesis(parent.ids + (tok,), float(score[i]), tok == EOS_ID)
            chosen.append(parent)
        beams = chosen
        for hyp in beams:
            if hyp.finished and (best_finished is None or hyp.logp > best_finished.logp):
                best_finished = hyp

    best = best_finished if best_finished is not None else max(beams, key=lambda h: h.logp)
    return Generation(best.ids, best.logp)


class TestBatchedStep:
    @SETTINGS
    @given(
        st.sampled_from([(8, 2), (8, 4), (16, 2)]),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 5),
        st.booleans(),
        st.integers(0, 10_000),
    )
    def test_batched_attention_is_the_per_row_attention(self, width, batch, tq, tk, shared, seed):
        # With shared K/V (cross-attention) every batch row attends to the same
        # keys; otherwise each row has its own, as self-attention in a beam step.
        d, heads = width
        backbone, _, _ = tiny_model(seed=seed, d=d, heads=heads)
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(batch, tq, d))
        kv_shape = (tk, d) if shared else (batch, tk, d)
        k, v = rng.normal(size=kv_shape), rng.normal(size=kv_shape)
        mask = None if tq > tk else _causal_mask(tk, tk - tq)
        p = backbone.params
        out = _attention(Tensor(q), Tensor(k), Tensor(v), p, "dec0/self", heads, mask=mask)
        assert out.shape == (batch, tq, d)
        for b in range(batch):
            kb, vb = (k, v) if shared else (k[b], v[b])
            row = _attention(Tensor(q[b]), Tensor(kb), Tensor(vb), p, "dec0/self", heads, mask=mask)
            assert out.data[b].tobytes() == row.data.tobytes()

    @SETTINGS
    @given(models(), st.sampled_from([1, 2, 4]), st.integers(1, 6))
    def test_same_ids_and_logp_as_per_hypothesis_beam(self, model, beam, max_len):
        (backbone, prompts, config), doc, _ = model
        got = beam_search(backbone, prompts, config, doc, beam=beam, max_len=max_len)
        want = per_hypothesis_beam_search(backbone, prompts, config, doc, beam, max_len)
        assert list(got) == list(want)
        assert got.logp.hex() == want.logp.hex()

    @SETTINGS
    @given(models(), st.sampled_from([1, 3, 4]), st.integers(1, 6))
    def test_at_most_one_decoder_call_per_step(self, model, beam, max_len):
        calls = []
        real = decoding.decode_logits

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        (backbone, prompts, config), doc, _ = model
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoding, "decode_logits", counting)
            out = beam_search(backbone, prompts, config, doc, beam=beam, max_len=max_len)
        assert len(calls) <= max_len
        assert len(calls) >= len(out)

    @SETTINGS
    @given(models(), st.data())
    def test_batch_over_mixed_cached_ancestors_matches_full_decode(self, model, data):
        # The cached call holds some parent prefixes; the next batch extends
        # them in any order, with a parent taken by several rows or by none.
        (backbone, prompts, config), doc, vocab = model
        enc, cache = encode_source(backbone, prompts, config, doc), DecoderCache()
        tokens = st.integers(0, vocab - 1)
        length, extra = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
        parents = data.draw(st.lists(st.tuples(*[tokens] * length), min_size=1, max_size=3))
        decode_logits(backbone, prompts, config, enc, parents, cache=cache)
        slots = data.draw(st.lists(st.integers(0, len(parents) - 1), min_size=1, max_size=4))
        batch = [parents[j] + data.draw(st.tuples(*[tokens] * extra)) for j in slots]
        logits, _ = decode_logits(backbone, prompts, config, enc, batch, cache=cache)
        assert logits.shape[:2] == (len(batch), extra)
        for b, prefix in enumerate(batch):
            full, _ = decode_logits(backbone, prompts, config, enc, prefix)
            np.testing.assert_allclose(logits.data[b], full.data[-extra:], rtol=0, atol=1e-12)
        assert cache.ids.tolist() == [list(prefix) for prefix in batch]


class TestCachedRows:
    @SETTINGS
    @given(models(), st.data())
    def test_cached_row_matches_full_decode(self, model, data):
        # Steps of one or more tokens along a batch of sequences.
        (backbone, prompts, config), doc, vocab = model
        enc, cache = encode_source(backbone, prompts, config, doc), DecoderCache()
        tokens = st.integers(0, vocab - 1)
        length = data.draw(st.integers(0, 5))
        seqs = data.draw(st.lists(st.lists(tokens, min_size=length, max_size=length), min_size=1, max_size=3))
        for n in sorted(data.draw(st.sets(st.integers(0, length), min_size=1))):
            cached = _next_logprobs(backbone, prompts, config, enc, cache, [seq[:n] for seq in seqs])
            for row, seq in zip(cached, seqs):
                full = _uncached_logprobs(backbone, prompts, config, enc, seq[:n])
                np.testing.assert_allclose(row, full, rtol=0, atol=1e-12)

    @SETTINGS
    @given(models())
    def test_call_from_scratch_is_the_teacher_forced_pass(self, model):
        (backbone, prompts, config), doc, _ = model
        enc = encode_source(backbone, prompts, config, doc)
        prefix = [4, 5, 6]
        cached, _ = decode_logits(backbone, prompts, config, enc, prefix, cache=DecoderCache())
        full, _ = decode_logits(backbone, prompts, config, enc, prefix)
        assert cached.data.tobytes() == full.data.tobytes()

    @SETTINGS
    @given(models(), st.lists(st.integers(4, 7), min_size=1, max_size=5))
    def test_cached_tensors_are_detached(self, model, prefix):
        # The cache holds only ndarrays; an encoding made under no_grad holds no tape.
        (backbone, prompts, config), doc, _ = model
        with ad.no_grad():
            enc = encode_source(backbone, prompts, config, doc)
        tensors = [enc.memory] + [t for kv in enc.cross for t in kv]
        assert len(tensors) == 1 + 2 * backbone.dims.layers
        assert all(t._parents == () and t._backward is None for t in tensors)
        cache = DecoderCache()
        for n in range(len(prefix) + 1):
            _next_logprobs(backbone, prompts, config, enc, cache, [prefix[:n]])
        rows = (1, config.effective_len_de + 1 + len(prefix), backbone.dims.d)
        arrays = [a for kv in cache.self_kv for a in kv]
        assert arrays and all(type(a) is np.ndarray and a.shape == rows for a in arrays)

    def test_cache_holds_only_the_last_calls_rows(self):
        backbone, prompts, config = tiny_model(seed=2)
        enc, cache = encode_source(backbone, prompts, config, make_doc([4, 5])), DecoderCache()
        for batch in [[()], [(4,), (6,)], [(4, 5), (4, 7), (6, 7)]]:
            _next_logprobs(backbone, prompts, config, enc, cache, batch)
        assert cache.ids.tolist() == [[4, 5], [4, 7], [6, 7]]
        rows = (3, config.effective_len_de + 3, backbone.dims.d)
        assert len(cache.self_kv) == backbone.dims.layers
        assert all(a.shape == rows for kv in cache.self_kv for a in kv)

    @pytest.mark.parametrize(
        "batch",
        [[(5, 9)], [(4, 5, 9), (6, 1, 9)], [(4, 5)], [(4,)]],
        ids=["unknown parent", "one row unknown", "same length", "shorter"],
    )
    def test_batch_not_extending_the_last_call_is_rejected(self, batch):
        backbone, prompts, config = tiny_model(seed=2)
        enc, cache = encode_source(backbone, prompts, config, make_doc([4, 5])), DecoderCache()
        _next_logprobs(backbone, prompts, config, enc, cache, [(4, 5), (6, 7)])
        kv = cache.self_kv
        with pytest.raises(ValueError, match="do not extend"):
            _next_logprobs(backbone, prompts, config, enc, cache, batch)
        assert cache.ids.tolist() == [[4, 5], [6, 7]]
        assert cache.self_kv is kv


class TestCachedStep:
    @SETTINGS
    @given(
        st.integers(1, 4),
        st.sampled_from([1, 2]),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 10_000),
        st.data(),
    )
    def test_cached_steps_match_teacher_forcing_without_concat(
        self, batch, layers, len_de, decoder_only, seed, data
    ):
        # B prefixes step along their tokens, one or more at a time, after a
        # first call on B empty prefixes.
        backbone, prompts, config = tiny_model(
            seed=seed, vocab=12, layers=layers, len_de=len_de, decoder_only=decoder_only
        )
        doc = make_doc([4, 5, 6], [7, 8])
        enc, cache = encode_source(backbone, prompts, config, doc), DecoderCache()
        length = data.draw(st.integers(1, 4))
        tokens = st.lists(st.integers(0, 11), min_size=length, max_size=length)
        seqs = data.draw(st.lists(tokens, min_size=batch, max_size=batch))
        decode_logits(backbone, prompts, config, enc, [[]] * batch, cache=cache)
        concats = []
        real = ad.concat_rows

        def counting(parts):
            concats.append(len(parts))
            return real(parts)

        done = 0
        for n in sorted(data.draw(st.sets(st.integers(1, length), min_size=1))):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ad, "concat_rows", counting)
                logits, _ = decode_logits(
                    backbone, prompts, config, enc, [seq[:n] for seq in seqs], cache=cache
                )
            assert logits.shape == (batch, n - done, backbone.dims.vocab)
            for b, seq in enumerate(seqs):
                full, _ = decode_logits(backbone, prompts, config, enc, seq[:n])
                np.testing.assert_allclose(logits.data[b], full.data[-(n - done):], rtol=0, atol=1e-12)
            done = n
        assert not concats


class TestDecodesShareAnEncoding:
    @SETTINGS
    @given(models(), st.data())
    def test_two_caches_step_interleaved_batches(self, model, data):
        # Two decodes of one encoding, each with its own cache, step their own
        # batches of prefixes in an interleaved order.
        (backbone, prompts, config), doc, vocab = model
        enc = encode_source(backbone, prompts, config, doc)
        tokens = st.integers(0, vocab - 1)
        decodes = []
        for _ in range(2):
            length = data.draw(st.integers(0, 4))
            seqs = data.draw(st.lists(st.lists(tokens, min_size=length, max_size=length), min_size=1, max_size=3))
            steps = sorted(data.draw(st.sets(st.integers(0, length), min_size=1)))
            decodes.append((DecoderCache(), seqs, steps))
        order = data.draw(st.permutations([0] * len(decodes[0][2]) + [1] * len(decodes[1][2])))
        done = [None, None]
        for which in order:
            cache, seqs, steps = decodes[which]
            n = steps.pop(0)
            batch = [seq[:n] for seq in seqs]
            logits, _ = decode_logits(backbone, prompts, config, enc, batch, cache=cache)
            # A first call returns every predicting row, a later one the new rows.
            new = n + 1 if done[which] is None else n - done[which]
            assert logits.shape == (len(seqs), new, vocab)
            for b, prefix in enumerate(batch):
                full, _ = decode_logits(backbone, prompts, config, enc, prefix)
                np.testing.assert_allclose(logits.data[b], full.data[-new:], rtol=0, atol=1e-12)
            assert cache.ids.tolist() == batch
            done[which] = n


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
        monkeypatch.setattr(
            decoding, "_next_logprobs",
            lambda b, p, c, e, cache, prefixes: np.stack([table[tuple(x)] for x in prefixes]),
        )
        backbone, prompts, config = tiny_model(vocab=10)
        assert beam_search(backbone, prompts, config, make_doc([4]), beam=2, max_len=2) == [5, 6]

    def test_cache_holds_at_most_beam_prefixes(self, monkeypatch):
        batches, caches = [], []

        def record(*args, **kwargs):
            batches.append(args[4])
            caches.append(kwargs["cache"])
            return decode_logits(*args, **kwargs)

        monkeypatch.setattr(decoding, "decode_logits", record)
        backbone, prompts, config = tiny_model(seed=4, vocab=12)
        beam_search(backbone, prompts, config, make_doc([4, 5, 6]), beam=3, max_len=6)
        assert all(1 <= len(batch) <= 3 for batch in batches)
        cache = caches[0]
        assert all(c is cache for c in caches)
        assert cache.ids.tolist() == [list(prefix) for prefix in batches[-1]]
        assert all(a.shape[0] == len(batches[-1]) for kv in cache.self_kv for a in kv)

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
            rows = real(*args).copy()
            rows[:, EOS_ID] = -math.inf
            return rows

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
