"""Backbone init, prompt composition, forward contracts, and checkpoints."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsum import autodiff as ad
from promptsum import model, training
from promptsum.corpus import EOS_ID
from promptsum.model import (
    CheckpointError,
    ConfigError,
    LengthOverflowError,
    ModelDims,
    PromptConfig,
    assign_inner_prompts,
    check_rows,
    compose_encoder_input,
    compute_n_max,
    count_trainable_params,
    decode_logits,
    encode_source,
    forward,
    init_backbone,
    init_prompts,
    load_checkpoint,
    save_checkpoint,
)

from conftest import make_doc, make_pair, random_document, tiny_model


class TestInitBackbone:
    def test_head_split_requires_divisibility(self):
        with pytest.raises(ConfigError):
            ModelDims(d=30, layers=1, heads=4, ffn=8, vocab=10, max_pos=16)

    def test_same_seed_identical(self):
        dims = ModelDims(d=8, layers=2, heads=2, ffn=16, vocab=20, max_pos=32)
        a = init_backbone(dims, seed=11)
        b = init_backbone(dims, seed=11)
        assert a.checksum() == b.checksum()

    def test_different_seed_differs(self):
        dims = ModelDims(d=8, layers=1, heads=2, ffn=16, vocab=20, max_pos=32)
        assert init_backbone(dims, 1).checksum() != init_backbone(dims, 2).checksum()

    def test_starts_unfrozen(self):
        dims = ModelDims(d=8, layers=1, heads=2, ffn=16, vocab=20, max_pos=32)
        backbone = init_backbone(dims, 0)
        assert not backbone.frozen
        assert all(t.requires_grad for t in backbone.params.values())


class TestInitPrompts:
    def test_rows_copied_from_distinct_vocab_embeddings(self):
        dims = ModelDims(d=8, layers=1, heads=2, ffn=16, vocab=500, max_pos=256)
        backbone = init_backbone(dims, 0)
        config = PromptConfig(len_en=100, len_de=0, strategy="none")
        prompts = init_prompts(config, backbone, seed=3)
        embed = backbone.embed.data
        sources = []
        for row in prompts.p_en.data:
            matches = np.where((embed == row).all(axis=1))[0]
            assert matches.size == 1
            sources.append(int(matches[0]))
        assert len(set(sources)) == 100

    def test_rows_are_copies_not_views(self):
        backbone, prompts, _ = tiny_model()
        before = backbone.embed.data.copy()
        prompts.p_en.data += 1.0
        np.testing.assert_array_equal(backbone.embed.data, before)

    def test_over_vocab_falls_back_with_warning(self):
        dims = ModelDims(d=8, layers=1, heads=2, ffn=16, vocab=5, max_pos=64)
        backbone = init_backbone(dims, 0)
        config = PromptConfig(len_en=8, len_de=8, strategy="none")
        with pytest.warns(UserWarning, match="replacement"):
            prompts = init_prompts(config, backbone, seed=0)
        assert prompts.p_en.data.shape == (8, 8)

    def test_strategy_none_has_no_inner_table(self):
        _, prompts, _ = tiny_model(strategy="none")
        assert prompts.p_in is None

    def test_interval_has_two_rows(self):
        _, prompts, _ = tiny_model(strategy="interval")
        assert prompts.p_in.data.shape[0] == 2

    def test_inner_init_scale(self):
        dims = ModelDims(d=64, layers=1, heads=2, ffn=16, vocab=50, max_pos=64)
        backbone = init_backbone(dims, 0)
        config = PromptConfig(len_en=2, len_de=2, strategy="sequential", n_max=200)
        prompts = init_prompts(config, backbone, seed=0)
        std = prompts.p_in.data.std()
        assert 0.04 < std < 0.06  # N(0, 0.05) draws

    def test_shared_prompts_alias(self):
        _, prompts, _ = tiny_model(len_en=4, len_de=4, shared=True)
        assert prompts.p_de is prompts.p_en
        prompts.p_en.data[0, 0] = 123.0
        assert prompts.p_de.data[0, 0] == 123.0
        assert "prompts/P_de" not in prompts.named_tensors()

    def test_shared_requires_equal_lengths(self):
        with pytest.raises(ConfigError):
            PromptConfig(len_en=4, len_de=2, shared=True)


class TestComputeNMax:
    def test_percentile_of_range(self):
        docs = [make_doc(*[[4]] * n) for n in range(1, 101)]
        assert compute_n_max(docs, percentile=0.85) == 85

    def test_uniform_counts(self):
        docs = [make_doc(*[[4, 5]] * 5) for _ in range(10)]
        assert compute_n_max(docs, percentile=0.85) == 5

    def test_span_unit(self):
        # 25 tokens at k=10 -> 3 spans
        docs = [make_doc([4] * 25)]
        assert compute_n_max(docs, percentile=1.0, unit="span_k", k=10) == 3

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            compute_n_max([])


class TestAssignInnerPrompts:
    def test_interval_parity(self):
        doc = make_doc([4, 5], [6], [7, 8], [9])
        config = PromptConfig(len_en=2, len_de=2, strategy="interval")
        idx = assign_inner_prompts(doc, config)
        np.testing.assert_array_equal(idx, [0, 0, 1, 0, 0, 1])

    def test_sequential_overflow(self):
        doc = make_doc(*[[4]] * 7)
        config = PromptConfig(len_en=2, len_de=2, strategy="sequential", n_max=5)
        idx = assign_inner_prompts(doc, config)
        np.testing.assert_array_equal(idx, [0, 1, 2, 3, 4, 5, 5])

    def test_fixed_k_partition(self):
        doc = make_doc([4] * 25)
        config = PromptConfig(len_en=2, len_de=2, strategy="fixed_k", k=10, n_max=5)
        idx = assign_inner_prompts(doc, config)
        assert list(idx[:10]) == [0] * 10
        assert list(idx[10:20]) == [1] * 10
        assert list(idx[20:]) == [2] * 5

    def test_fixed_k_overflow_cap(self):
        doc = make_doc([4] * 12)
        config = PromptConfig(len_en=2, len_de=2, strategy="fixed_k", k=3, n_max=2)
        idx = assign_inner_prompts(doc, config)
        np.testing.assert_array_equal(idx, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2])

    def test_every_token_covered_once(self):
        rng = np.random.default_rng(0)
        for strategy in ("interval", "sequential", "fixed_k"):
            config = PromptConfig(len_en=2, len_de=2, strategy=strategy, k=3, n_max=4)
            for _ in range(100):
                doc = random_document(rng)
                idx = assign_inner_prompts(doc, config)
                assert idx.shape == (doc.flat_length,)
                assert idx.min() >= 0
                assert idx.max() <= (1 if strategy == "interval" else 4)

    def test_strategy_none_rejected(self):
        with pytest.raises(ConfigError):
            assign_inner_prompts(make_doc([4]), PromptConfig(strategy="none"))


class TestComposeEncoderInput:
    def test_plain_lookup_when_no_prompts(self):
        backbone, prompts, config = tiny_model(len_en=0, len_de=0, strategy="none")
        doc = make_doc([4, 5, 6])
        out = compose_encoder_input(doc, prompts, backbone, config)
        expected = backbone.embed.data[[4, 5, 6]] + backbone.pos.data[:3]
        np.testing.assert_array_equal(out.data, expected)

    def test_single_token_interval_row(self):
        backbone, prompts, config = tiny_model(len_en=2, len_de=2, strategy="interval")
        doc = make_doc([7])
        out = compose_encoder_input(doc, prompts, backbone, config)
        expected = (
            backbone.embed.data[7] + backbone.pos.data[2] + prompts.p_in.data[0]
        )
        np.testing.assert_array_equal(out.data[2], expected)

    def test_concatenation_length(self):
        backbone, prompts, config = tiny_model(len_en=2, len_de=2, strategy="none")
        doc = make_doc([4, 5, 6])
        out = compose_encoder_input(doc, prompts, backbone, config)
        assert out.data.shape == (5, backbone.dims.d)

    def test_prompt_rows_take_leading_positions(self):
        backbone, prompts, config = tiny_model(len_en=2, len_de=2, strategy="none")
        doc = make_doc([4])
        out = compose_encoder_input(doc, prompts, backbone, config)
        np.testing.assert_array_equal(
            out.data[0], prompts.p_en.data[0] + backbone.pos.data[0]
        )

    def test_zero_inner_equals_none(self):
        backbone, prompts, config = tiny_model(strategy="sequential", n_max=3)
        prompts.p_in.data[...] = 0.0
        doc = make_doc([4, 5], [6, 7])
        with_inner = compose_encoder_input(doc, prompts, backbone, config)
        none_config = PromptConfig(len_en=3, len_de=2, strategy="none")
        none_prompts = type(prompts)(prompts.p_en, prompts.p_de, None, none_config)
        without = compose_encoder_input(doc, none_prompts, backbone, none_config)
        np.testing.assert_array_equal(with_inner.data, without.data)

    def test_overflow_names_max_pos(self):
        backbone, prompts, config = tiny_model(max_pos=8, len_en=3, len_de=2)
        doc = make_doc([4] * 6)
        with pytest.raises(LengthOverflowError, match="8"):
            compose_encoder_input(doc, prompts, backbone, config)

    def test_inner_strategy_requires_inner_table(self):
        backbone, prompts, _ = tiny_model(strategy="none")
        wants_inner = PromptConfig(len_en=3, len_de=2, strategy="interval")
        with pytest.raises(ConfigError, match="inner"):
            compose_encoder_input(make_doc([4]), prompts, backbone, wants_inner)


class TestRowRule:
    @settings(max_examples=60, deadline=None)
    @given(
        len_en=st.integers(0, 3),
        len_de=st.integers(0, 3),
        placement=st.sampled_from(["both", "encoder_only", "decoder_only"]),
        sentences=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        n_prefix=st.integers(0, 5),
    )
    def test_rule_matches_the_rows_the_model_runs(self, len_en, len_de, placement, sentences, n_prefix):
        backbone, prompts, config = tiny_model(
            len_en=len_en, len_de=len_de, strategy="none",
            encoder_only=placement == "encoder_only", decoder_only=placement == "decoder_only",
        )
        doc = make_doc(*([4] * n for n in sentences))
        enc = encode_source(backbone, prompts, config, doc)
        _, capture = decode_logits(backbone, prompts, config, enc, [5] * n_prefix, capture_attention=True)
        enc_rows, dec_rows = enc.length, capture[0].shape[-2]

        def raises(m, **rows) -> bool:
            try:
                check_rows(config, m, **rows)
            except LengthOverflowError:
                return True
            return False

        # Teacher forcing on an n-token prefix predicts n + 1 tokens.
        source, targets = sum(sentences), n_prefix + 1
        for m in range(min(enc_rows, dec_rows) - 1, max(enc_rows, dec_rows) + 2):
            assert raises(m, source=source) == (enc_rows > m)
            assert raises(m, targets=targets) == (dec_rows > m)
            assert raises(m, source=source, targets=targets) == (max(enc_rows, dec_rows) > m)


class TestForward:
    def test_logit_rows_cover_all_predictions(self):
        backbone, prompts, config = tiny_model()
        doc = make_doc([4, 5, 6])
        res = forward(backbone, prompts, config, doc, [7, 8])
        assert res.logits.data.shape == (3, backbone.dims.vocab)

    def test_empty_prefix_gives_one_row(self):
        backbone, prompts, config = tiny_model()
        res = forward(backbone, prompts, config, make_doc([4, 5]), [])
        assert res.logits.data.shape[0] == 1

    def test_attention_shape_contract(self):
        backbone, prompts, config = tiny_model(len_en=3, len_de=2)
        doc = make_doc([4, 5, 6, 7])
        res = forward(backbone, prompts, config, doc, [8, 9])
        assert res.attention.matrix.shape == (2 + 1 + 2, 3 + 4)
        assert len(res.attention.row_labels) == 5
        assert len(res.attention.col_labels) == 7

    def test_attention_rows_are_distributions(self):
        backbone, prompts, config = tiny_model()
        res = forward(backbone, prompts, config, make_doc([4, 5, 6]), [7])
        np.testing.assert_allclose(res.attention.matrix.sum(axis=1), 1.0, atol=1e-5)

    def test_forward_deterministic_bitwise(self):
        backbone, prompts, config = tiny_model()
        doc = make_doc([4, 5], [6])
        a = forward(backbone, prompts, config, doc, [7])
        b = forward(backbone, prompts, config, doc, [7])
        assert a.logits.data.tobytes() == b.logits.data.tobytes()

    def test_encoder_only_drops_decoder_prompts(self):
        backbone, prompts, config = tiny_model(encoder_only=True, len_en=3, len_de=2)
        res = forward(backbone, prompts, config, make_doc([4, 5]), [6])
        assert res.attention.len_de == 0
        assert res.attention.len_en == 3
        assert not any(label.startswith("P_de") for label in res.attention.row_labels)
        assert res.attention.matrix.shape == (0 + 1 + 1, 3 + 2)

    def test_decoder_only_drops_encoder_prompts(self):
        backbone, prompts, config = tiny_model(decoder_only=True, len_en=3, len_de=2)
        res = forward(backbone, prompts, config, make_doc([4, 5]), [6])
        assert res.attention.len_en == 0
        assert res.attention.len_de == 2
        assert not any(label.startswith("P_en") for label in res.attention.col_labels)
        assert res.attention.matrix.shape == (2 + 1 + 1, 0 + 2)

    def test_decoder_overflow_raises(self):
        backbone, prompts, config = tiny_model(max_pos=8, len_en=0, len_de=2)
        with pytest.raises(LengthOverflowError):
            forward(backbone, prompts, config, make_doc([4]), [5] * 8)

    def test_decoder_is_causal(self):
        # logits row t conditions only on prefix tokens before position t:
        # changing a later prefix token must leave earlier rows bitwise intact
        backbone, prompts, config = tiny_model(seed=4)
        doc = make_doc([4, 5, 6])
        a = forward(backbone, prompts, config, doc, [7, 8]).logits.data
        b = forward(backbone, prompts, config, doc, [7, 9]).logits.data
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[2], b[2])

    def test_encoder_is_bidirectional(self):
        # the first prediction sees the whole source through cross-attention
        backbone, prompts, config = tiny_model(seed=4)
        a = forward(backbone, prompts, config, make_doc([4, 5, 6]), []).logits.data
        b = forward(backbone, prompts, config, make_doc([4, 5, 7]), []).logits.data
        assert not np.array_equal(a[0], b[0])


PLACEMENTS = {
    "decoder_prompt": dict(len_en=3, len_de=2),
    "no_decoder_prompt": dict(len_en=3, len_de=0),
    "encoder_only": dict(len_en=3, len_de=2, encoder_only=True),
    "decoder_only": dict(len_en=2, len_de=3, decoder_only=True),
    "shared": dict(len_en=3, len_de=3, shared=True),
}
ROW_CUT = settings(max_examples=10, deadline=None)
PREFIXES = st.lists(st.integers(4, 19), max_size=4)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("layers", [1, 2])
class TestLastLayerRows:
    """The last decoder layer runs only the rows that predict a token; the
    full-row path (taken when attention is captured) is the reference."""

    @ROW_CUT
    @given(seed=st.integers(0, 1000), prefixes=st.lists(PREFIXES, min_size=1, max_size=3))
    def test_logits_and_prompt_gradients_match_the_full_rows(self, layers, placement, seed, prefixes):
        backbone, prompts, config = tiny_model(seed=seed, layers=layers, **PLACEMENTS[placement])
        doc = make_doc([4, 5, 6], [7, 8])
        enc = encode_source(backbone, prompts, config, doc)
        cut, _ = decode_logits(backbone, prompts, config, enc, prefixes[0])
        full, _ = decode_logits(backbone, prompts, config, enc, prefixes[0], capture_attention=True)
        assert cut.shape == full.shape == (len(prefixes[0]) + 1, backbone.dims.vocab)
        np.testing.assert_allclose(cut.data, full.data, rtol=0, atol=1e-12)

        batch = [make_pair(doc, prefix + [EOS_ID]) for prefix in prefixes]
        tensors = prompts.named_tensors()

        def prompt_grads():
            for t in tensors.values():
                t.zero_grad()
            loss, _ = training.batch_mean_nll(backbone, prompts, config, batch)
            loss.backward()
            return {name: t.grad for name, t in tensors.items()}

        got = prompt_grads()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "decode_logits", partial(decode_logits, capture_attention=True))
            want = prompt_grads()
        assert got.keys() == want.keys() and got
        for name in got:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)

    @ROW_CUT
    @given(seed=st.integers(0, 1000), prefix=PREFIXES)
    def test_last_layer_queries_only_the_predicting_rows(self, layers, placement, seed, prefix):
        backbone, prompts, config = tiny_model(seed=seed, layers=layers, **PLACEMENTS[placement])
        enc = encode_source(backbone, prompts, config, make_doc([4, 5, 6]))
        queries = []

        def attention(q, *args, **kwargs):
            queries.append(q.shape[-2])
            return attention_op(q, *args, **kwargs)

        attention_op = ad.attention
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ad, "attention", attention)
            decode_logits(backbone, prompts, config, enc, prefix)
        # Self- then cross-attention per layer; earlier layers keep every row.
        rows = config.effective_len_de + len(prefix) + 1
        assert queries == [rows, rows] * (layers - 1) + [len(prefix) + 1] * 2


class TestSharedGradientAliasing:
    def test_shared_grad_is_sum_of_separate_grads(self):
        backbone, shared_prompts, shared_config = tiny_model(
            len_en=3, len_de=3, shared=True, strategy="none", prompt_seed=5
        )
        sep_config = PromptConfig(len_en=3, len_de=3, strategy="none")
        sep_prompts = init_prompts(sep_config, backbone, seed=5)
        # make the separate decoder prompt numerically identical to the encoder one
        sep_prompts.p_de.data[...] = sep_prompts.p_en.data
        shared_prompts.p_en.data[...] = sep_prompts.p_en.data

        doc = make_doc([4, 5, 6])
        targets = np.array([7, 8, EOS_ID])

        def loss_and_grads(prompts, config):
            for t in prompts.named_tensors().values():
                t.zero_grad()
            res = forward(backbone, prompts, config, doc, targets[:-1].tolist())
            loss, n = ad.cross_entropy_sum(res.logits, targets)
            ad.scale(loss, 1.0 / n).backward()
            return loss.item(), prompts

        loss_shared, shared_prompts = loss_and_grads(shared_prompts, shared_config)
        loss_sep, sep_prompts = loss_and_grads(sep_prompts, sep_config)
        assert loss_shared == pytest.approx(loss_sep, rel=1e-12)
        np.testing.assert_allclose(
            shared_prompts.p_en.grad,
            sep_prompts.p_en.grad + sep_prompts.p_de.grad,
            atol=1e-12,
        )


class TestCountTrainableParams:
    def test_main_configuration(self):
        config = PromptConfig(len_en=100, len_de=100, strategy="sequential", n_max=61)
        assert count_trainable_params(config, d=768) == 201_216

    def test_encoder_prompt_only(self):
        config = PromptConfig(len_en=100, len_de=0, strategy="none")
        assert count_trainable_params(config, d=768) == 76_800

    def test_shared_halves_prompt_pair(self):
        config = PromptConfig(len_en=100, len_de=100, strategy="none", shared=True)
        assert count_trainable_params(config, d=768) == 76_800

    def test_interval_adds_two_rows(self):
        config = PromptConfig(len_en=10, len_de=10, strategy="interval")
        assert count_trainable_params(config, d=8) == 8 * 22

    def test_full_mode_includes_backbone(self):
        backbone, _, config = tiny_model()
        total = count_trainable_params(config, d=8, mode="full_model", backbone=backbone)
        assert total == backbone.size() + count_trainable_params(config, d=8)

    def test_full_mode_requires_backbone(self):
        with pytest.raises(ConfigError):
            count_trainable_params(PromptConfig(), d=8, mode="full_model")

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("placement", [{}, {"encoder_only": True}, {"decoder_only": True}])
    @pytest.mark.parametrize("strategy", ["none", "interval"])
    def test_count_is_the_size_of_the_trained_tensors(self, placement, shared, strategy):
        # A shared config with one placement trains that prompt on its own
        # (decoder_only: a separate P_de), so the count must include it.
        backbone, prompts, config = tiny_model(
            len_en=4, len_de=4, strategy=strategy, shared=shared, **placement
        )
        trained = sum(t.data.size for t in prompts.named_tensors().values())
        assert trained > 0
        assert count_trainable_params(config, d=8) == trained
        full = count_trainable_params(config, d=8, mode="full_model", backbone=backbone)
        assert full == backbone.size() + trained


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        backbone, prompts, config = tiny_model(strategy="interval", shared=False)
        backbone.freeze()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, backbone, prompts)
        loaded_backbone, loaded_prompts = load_checkpoint(path)
        assert loaded_backbone.checksum() == backbone.checksum()
        assert loaded_backbone.frozen
        assert loaded_prompts.config == config
        np.testing.assert_array_equal(loaded_prompts.p_en.data, prompts.p_en.data)
        np.testing.assert_array_equal(loaded_prompts.p_in.data, prompts.p_in.data)

    def test_shared_aliasing_restored(self, tmp_path):
        backbone, prompts, _ = tiny_model(len_en=4, len_de=4, shared=True)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, backbone, prompts)
        _, loaded = load_checkpoint(path)
        assert loaded.p_de is loaded.p_en

    def test_dim_mismatch_rejected(self, tmp_path):
        backbone, prompts, _ = tiny_model()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, backbone, prompts)
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["backbone/embed/token"] = arrays["backbone/embed/token"][:, :4]
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(CheckpointError, match="embed/token"):
            load_checkpoint(tmp_path / "bad.npz")

    def test_missing_tensor_rejected(self, tmp_path):
        backbone, prompts, _ = tiny_model()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, backbone, prompts)
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files if k != "prompts/P_in"}
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(CheckpointError, match="P_in"):
            load_checkpoint(tmp_path / "bad.npz")

    def test_suffix_added_when_missing(self, tmp_path):
        backbone, prompts, _ = tiny_model()
        save_checkpoint(tmp_path / "ckpt", backbone, prompts)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]
        assert load_checkpoint(tmp_path / "ckpt.npz")[0].checksum() == backbone.checksum()

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        backbone, prompts, _ = tiny_model()
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, backbone, prompts)
        before = path.read_bytes()

        def savez_then_fail(file, *args, **kwargs):
            file.write(b"PK\x03\x04 partial archive")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        prompts.p_en.data += 1.0
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, backbone, prompts)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]

    def test_training_resumes_identically_after_reload(self, tmp_path):
        from promptsum.training import TrainConfig, init_train_state, train_step
        from promptsum.corpus import SummaryPair

        backbone, prompts, config = tiny_model()
        backbone.freeze()
        tc = TrainConfig(
            mode="prompt_only", peak_lr=1e-2, warmup_steps=5, epochs=1, batch=2, grad_accum=1, seed=0
        )
        state = init_train_state(prompts, backbone, tc)
        pair = SummaryPair(make_doc([4, 5], [6, 7]), (8, 9, EOS_ID))
        for _ in range(3):
            state, _ = train_step(state, backbone, [pair], tc)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, backbone, prompts)

        loaded_backbone, loaded_prompts = load_checkpoint(path)
        a = forward(backbone, prompts, config, pair.document, [8]).logits.data
        b = forward(loaded_backbone, loaded_prompts, config, pair.document, [8]).logits.data
        assert a.tobytes() == b.tobytes()
