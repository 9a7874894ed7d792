"""Loss, schedule, optimizer stepping, freezing, and gradient verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsum import autodiff as ad
from promptsum.corpus import EOS_ID, PAD_ID
from promptsum.decoding import beam_search
from promptsum.model import PromptConfig, forward, init_prompts
from promptsum.training import (
    TrainConfig,
    TrainState,
    TrainingDivergedError,
    _chunk,
    batch_mean_nll,
    grad_check,
    init_train_state,
    noam_lr,
    run_stage,
    train_step,
    trainable_tensors,
)

from conftest import make_doc, make_pair, tiny_model


def _quick_config(**kw):
    kw.setdefault("mode", "prompt_only")
    kw.setdefault("peak_lr", 1e-2)
    kw.setdefault("warmup_steps", 10)
    kw.setdefault("epochs", 1)
    kw.setdefault("batch", 2)
    kw.setdefault("grad_accum", 1)
    kw.setdefault("seed", 0)
    return TrainConfig(**kw)


def _pairs(n=4, seed=0, vocab=20):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        doc = make_doc([int(v) for v in rng.integers(4, vocab, size=4)],
                       [int(v) for v in rng.integers(4, vocab, size=3)])
        out.append(make_pair(doc, [int(v) for v in rng.integers(4, vocab, size=3)]))
    return out


class TestNoamLr:
    def test_peak_at_warmup(self):
        assert noam_lr(100, 100, 3e-4) == pytest.approx(3e-4)

    def test_linear_warmup(self):
        assert noam_lr(50, 100, 3e-4) == pytest.approx(1.5e-4)

    def test_sqrt_decay(self):
        assert noam_lr(400, 100, 3e-4) == pytest.approx(1.5e-4)

    def test_maximum_attained_at_warmup(self):
        lrs = [noam_lr(s, 20, 1.0) for s in range(1, 200)]
        assert max(lrs) == lrs[19]

    def test_zero_warmup_rejected(self):
        with pytest.raises(ValueError):
            noam_lr(1, 0, 1e-3)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            noam_lr(0, 10, 1e-3)


class TestTrainStep:
    def test_prompt_only_requires_frozen(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        with pytest.raises(ValueError, match="frozen"):
            train_step(state, backbone, _pairs(2), config)

    def test_prompt_only_leaves_backbone_bitwise_unchanged(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        checksum = backbone.checksum()
        for _ in range(5):
            state, _ = train_step(state, backbone, _pairs(2), config)
        assert backbone.checksum() == checksum

    def test_prompts_actually_move(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        before = prompts.p_en.data.copy()
        train_step(state, backbone, _pairs(2), config)
        assert not np.array_equal(prompts.p_en.data, before)

    def test_full_model_changes_backbone(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config(mode="full_model")
        state = init_train_state(prompts, backbone, config)
        checksum = backbone.checksum()
        train_step(state, backbone, _pairs(2), config)
        assert backbone.checksum() != checksum

    def test_full_model_requires_unfrozen(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        config = _quick_config(mode="full_model")
        state = init_train_state(prompts, backbone, config)
        with pytest.raises(ValueError, match="unfrozen"):
            train_step(state, backbone, _pairs(2), config)

    def test_grad_accumulation_matches_doubled_batch(self):
        pair = _pairs(1)[0]
        backbone, prompts_a, _ = tiny_model(prompt_seed=3)
        backbone.freeze()
        accum = _quick_config(grad_accum=2, batch=1)
        state_a = init_train_state(prompts_a, backbone, accum)
        train_step(state_a, backbone, [pair, pair], accum)

        prompts_b = init_prompts(prompts_a.config, backbone, seed=3)
        single = _quick_config(grad_accum=1, batch=2)
        state_b = init_train_state(prompts_b, backbone, single)
        train_step(state_b, backbone, [pair, pair], single)

        np.testing.assert_allclose(prompts_a.p_en.data, prompts_b.p_en.data, atol=1e-10)
        np.testing.assert_allclose(prompts_a.p_in.data, prompts_b.p_in.data, atol=1e-10)

    def test_loss_history_records_step_lr_loss(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        state, loss = train_step(state, backbone, _pairs(2), config)
        entry = state.loss_history[-1]
        assert entry["step"] == 1
        assert entry["loss"] == loss
        assert entry["lr"] == noam_lr(1, config.warmup_steps, config.peak_lr)

    def test_non_finite_loss_aborts(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        prompts.p_en.data[0, 0] = np.nan
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        with pytest.raises(TrainingDivergedError, match="step 1"):
            train_step(state, backbone, _pairs(2), config)

    def test_moments_must_match_trainables(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        state.moments.pop("prompts/P_in")
        with pytest.raises(ValueError, match="optimizer state"):
            train_step(state, backbone, _pairs(2), config)

    def test_unresolved_warmup_ratio_rejected(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        config = _quick_config(warmup_steps=None, warmup_ratio=0.1)
        state = init_train_state(prompts, backbone, config)
        with pytest.raises(ValueError, match="warmup"):
            train_step(state, backbone, _pairs(2), config)

    @pytest.mark.parametrize(
        "setting",
        [
            {"peak_lr": math.nan}, {"peak_lr": math.inf}, {"beta1": math.inf}, {"beta1": 1.0},
            {"beta2": math.nan}, {"beta2": -0.5}, {"adam_eps": 0.0}, {"adam_eps": math.nan},
            {"warmup_steps": None, "warmup_ratio": math.inf},
        ],
    )
    def test_settings_that_make_adam_non_finite_are_rejected(self, setting):
        name = next(iter(setting.keys() - {"warmup_steps"}))
        with pytest.raises(ValueError, match=name):
            _quick_config(**setting)

    def test_deterministic_loss_curves(self):
        def run():
            backbone, prompts, _ = tiny_model(prompt_seed=9)
            backbone.freeze()
            config = _quick_config()
            state = init_train_state(prompts, backbone, config)
            losses = []
            for _ in range(10):
                state, loss = train_step(state, backbone, _pairs(3, seed=2), config)
                losses.append(loss)
            return losses

        assert run() == run()


    def test_loss_history_records_tokens_and_grad_norm(self):
        backbone, prompts, _ = tiny_model()
        backbone.freeze()
        config = _quick_config(grad_accum=2)
        state = init_train_state(prompts, backbone, config)
        doc = make_doc([4, 5, 6], [7, 8])
        batch = [make_pair(doc, [9, PAD_ID, 10]), make_pair(doc, [11]), make_pair(doc, [PAD_ID, 12])]
        hand_count = 3 + 2 + 2  # non-PAD targets, EOS included
        state, loss = train_step(state, backbone, batch, config)
        entry = state.loss_history[-1]
        assert (entry["step"], entry["loss"]) == (1, loss)
        assert entry["tokens"] == hand_count
        grads = [
            t.grad if t.grad is not None else np.zeros_like(t.data)
            for t in trainable_tensors(backbone, prompts, config.mode).values()
        ]
        assert entry["grad_norm"] == np.sqrt(sum((g * g).sum() for g in grads))
        assert entry["grad_norm"] > 0
        assert entry["wall_s"] > 0


def test_train_step_after_decoding_matches_one_before():
    doc = make_doc([4, 5, 6], [7, 8])
    batch = [make_pair(doc, [9, 10]), make_pair(make_doc([11, 12]), [13])]

    def step(decode_first: bool):
        backbone, prompts, _ = tiny_model(seed=5)
        backbone.freeze()
        if decode_first:
            beam_search(backbone, prompts, prompts.config, doc, beam=2, max_len=4)
        config = _quick_config()
        state, loss = train_step(init_train_state(prompts, backbone, config), backbone, batch, config)
        return float(loss).hex(), {n: t.grad.tobytes() for n, t in prompts.named_tensors().items()}

    assert step(decode_first=True) == step(decode_first=False)


def _graph(root):
    """Every tensor reachable from ``root`` through parent links."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@st.composite
def _lean_cases(draw):
    vocab = draw(st.integers(8, 14))
    len_en = draw(st.integers(0, 3))
    shared = draw(st.booleans())
    model = dict(
        seed=draw(st.integers(0, 10_000)),
        vocab=vocab,
        d=draw(st.sampled_from([8, 16])),
        layers=draw(st.integers(1, 2)),
        len_en=len_en,
        len_de=len_en if shared else draw(st.integers(0, 3)),
        shared=shared,
        strategy=draw(st.sampled_from(["none", "interval", "sequential"])),
    )
    words = st.lists(st.integers(4, vocab - 1), min_size=1, max_size=4)
    pair = st.builds(lambda doc, summary: make_pair(make_doc(*doc), summary), st.lists(words, min_size=1, max_size=3), words)
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    return model, pairs, draw(st.integers(1, len(pairs)))


class TestLeanBackward:
    """The frozen-backbone backward against the same graph with every leaf
    unfrozen, where every closure computes every parent's gradient."""

    @staticmethod
    def _accumulate(backbone, prompts, config, chunks):
        """train_step's gradient accumulation; returns chunk losses and roots."""
        for t in list(prompts.named_tensors().values()) + list(backbone.params.values()):
            t.zero_grad()
        losses, roots = [], []
        for chunk in chunks:
            loss, _ = batch_mean_nll(backbone, prompts, config, chunk)
            root = ad.scale(loss, 1.0 / len(chunks))
            root.backward()
            losses.append(loss.data.tobytes())
            roots.append(root)
        grads = {n: None if t.grad is None else t.grad.copy() for n, t in prompts.named_tensors().items()}
        return losses, roots, grads

    @settings(max_examples=30, deadline=None)
    @given(_lean_cases())
    def test_frozen_matches_unfrozen_bitwise(self, case):
        model, pairs, grad_accum = case
        backbone, prompts, config = tiny_model(**model)
        chunks = _chunk(pairs, grad_accum)

        backbone.unfreeze()
        ref_losses, ref_roots, ref_grads = self._accumulate(backbone, prompts, config, chunks)
        backbone.freeze()
        losses, roots, grads = self._accumulate(backbone, prompts, config, chunks)

        assert losses == ref_losses
        for name, g in grads.items():
            assert (g is None) == (ref_grads[name] is None), name
            if g is not None:
                assert g.tobytes() == ref_grads[name].tobytes(), name
        assert all(t.grad is None for t in backbone.params.values())
        for root in roots + ref_roots:
            for node in _graph(root):
                if node._parents:
                    assert node.grad is None

        # each chunk's backward adds into what the earlier chunks left
        per_chunk = [self._accumulate(backbone, prompts, config, [c])[2] for c in chunks]
        for name, g in grads.items():
            if g is not None:
                expected = sum(p[name] for p in per_chunk) / len(chunks)
                np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-12)


class TestTrainableTensors:
    def test_prompt_only_set(self):
        backbone, prompts, _ = tiny_model()
        names = set(trainable_tensors(backbone, prompts, "prompt_only"))
        assert names == {"prompts/P_en", "prompts/P_de", "prompts/P_in"}

    def test_shared_collapses_to_one_prompt_tensor(self):
        backbone, prompts, _ = tiny_model(len_en=4, len_de=4, shared=True)
        names = set(trainable_tensors(backbone, prompts, "prompt_only"))
        assert names == {"prompts/P_en", "prompts/P_in"}

    def test_full_model_includes_backbone(self):
        backbone, prompts, _ = tiny_model()
        names = trainable_tensors(backbone, prompts, "full_model")
        assert "backbone/embed/token" in names
        assert "prompts/P_en" in names


class TestGradCheck:
    def test_analytic_matches_numeric(self):
        backbone, prompts, config = tiny_model()
        pair = _pairs(1)[0]
        assert grad_check(backbone, prompts, config, pair, n_coords=30) < 1e-4

    def test_unused_inner_row_has_zero_gradient(self):
        backbone, prompts, config = tiny_model(strategy="sequential", n_max=3)
        doc = make_doc([4, 5, 6])  # one sentence -> only inner row 0 used
        pair = make_pair(doc, [7, 8])
        for t in prompts.named_tensors().values():
            t.zero_grad()
        res = forward(backbone, prompts, config, pair.document, list(pair.summary[:-1]))
        loss, _ = ad.cross_entropy_sum(res.logits, list(pair.summary))
        loss.backward()
        np.testing.assert_array_equal(prompts.p_in.grad[1:], 0.0)
        assert np.abs(prompts.p_in.grad[0]).max() > 0

    def test_micro_batch_loss_matches_numeric(self):
        # The loss train_step differentiates: three pairs whose summaries have
        # different lengths, projected onto the vocabulary as one row block.
        backbone, prompts, config = tiny_model(seed=4)
        batch = [
            make_pair(make_doc([4, 5, 6], [7, 8]), [9]),
            make_pair(make_doc([5, 6]), [9, 10, 11]),
            make_pair(make_doc([7, 4], [8]), [10, 12]),
        ]
        assert len({len(p.summary) for p in batch}) == 3
        assert grad_check(backbone, prompts, config, batch, n_coords=30) < 1e-4

    def test_strategy_none_skips_inner(self):
        backbone, prompts, config = tiny_model(strategy="none")
        pair = _pairs(1)[0]
        assert prompts.p_in is None
        assert grad_check(backbone, prompts, config, pair, n_coords=10) < 1e-4

    def test_backbone_gradients_match_finite_differences(self):
        # full_model mode differentiates the whole network; spot-check every
        # backbone tensor with the same fourth-order stencil grad_check uses
        backbone, prompts, config = tiny_model(seed=3)
        batch = [make_pair(make_doc([4, 5, 6], [7, 8]), [9, 10])]

        def loss_value():
            return float(batch_mean_nll(backbone, prompts, config, batch)[0].data)

        for t in backbone.params.values():
            t.zero_grad()
        batch_mean_nll(backbone, prompts, config, batch)[0].backward()

        rng = np.random.default_rng(0)
        eps = 1e-4
        worst = 0.0
        for name, t in backbone.params.items():
            flat = t.data.reshape(-1)
            analytic = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
            for c in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[c]
                samples = []
                for off in (2 * eps, eps, -eps, -2 * eps):
                    flat[c] = orig + off
                    samples.append(loss_value())
                flat[c] = orig
                f2u, f1u, f1d, f2d = samples
                numeric = (8.0 * (f1u - f1d) - (f2u - f2d)) / (12.0 * eps)
                worst = max(
                    worst, abs(analytic[c] - numeric) / max(abs(analytic[c]), abs(numeric), 1e-8)
                )
        assert worst < 1e-4


class TestRunStage:
    def test_zero_epochs_returns_state_unchanged(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config(epochs=0)
        state = init_train_state(prompts, backbone, config)
        before = prompts.p_en.data.copy()
        out = run_stage("pretrain", _pairs(4), [], state, backbone, config)
        assert out is state
        np.testing.assert_array_equal(prompts.p_en.data, before)

    def test_unknown_stage_rejected(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        with pytest.raises(ValueError, match="stage"):
            run_stage("warmup", _pairs(2), [], state, backbone, config)

    def test_empty_data_rejected(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        with pytest.raises(ValueError, match="empty"):
            run_stage("pretrain", [], [], state, backbone, config)

    def test_no_dev_warns_and_returns_final(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config(epochs=2)
        state = init_train_state(prompts, backbone, config)
        with pytest.warns(UserWarning, match="dev"):
            run_stage("pretrain", _pairs(4), [], state, backbone, config)

    def test_loss_decreases_on_lead_corpus(self):
        # summaries equal the first sentence: prompts can learn the copy bias
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(6):
            first = [int(v) for v in rng.integers(4, 14, size=4)]
            doc = make_doc(first, [int(v) for v in rng.integers(4, 14, size=4)])
            pairs.append(make_pair(doc, first))
        backbone, prompts, pconfig = tiny_model(d=16, ffn=32, vocab=14)
        config = _quick_config(epochs=25, batch=6, peak_lr=2e-2, seed=1)
        state = init_train_state(prompts, backbone, config)
        initial, _ = batch_mean_nll(backbone, prompts, pconfig, pairs)
        with pytest.warns(UserWarning, match="no dev set"):
            state = run_stage("pretrain", pairs, [], state, backbone, config)
        final, _ = batch_mean_nll(backbone, state.prompts, pconfig, pairs)
        assert final.item() < initial.item()

    def test_warmup_ratio_resolves(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config(warmup_steps=None, warmup_ratio=0.5, epochs=2)
        state = init_train_state(prompts, backbone, config)
        with pytest.warns(UserWarning, match="no dev set"):
            state = run_stage("pretrain", _pairs(2), [], state, backbone, config)
        # 2 epochs x 1 step each, 50% ratio -> warmup_steps 1: peak hit at step 1
        assert state.loss_history[0]["lr"] == pytest.approx(config.peak_lr)

    def test_each_epoch_logs_its_dev_rouge1(self, monkeypatch):
        from promptsum import training as tr

        backbone, prompts, _ = tiny_model()
        config = _quick_config(epochs=3, seed=4)
        state = init_train_state(prompts, backbone, config)
        scores = iter([0.5, 0.9, 0.2])
        monkeypatch.setattr(tr, "_dev_rouge1", lambda b, p, c, d: next(scores))
        state = run_stage("finetune", _pairs(4, seed=1), _pairs(2, seed=2), state, backbone, config)
        epochs = [e for e in state.loss_history if "epoch" in e]
        assert epochs == [
            {"epoch": 1, "dev_rouge1": 0.5},
            {"epoch": 2, "dev_rouge1": 0.9},
            {"epoch": 3, "dev_rouge1": 0.2},
        ]
        # Each epoch line follows that epoch's two steps; step lines are unchanged.
        assert [("epoch" in e) for e in state.loss_history] == [False, False, True] * 3
        assert [e["step"] for e in state.loss_history if "step" in e] == [1, 2, 3, 4, 5, 6]

    def test_dev_selects_best_checkpoint(self):
        backbone, prompts, pconfig = tiny_model()
        config = _quick_config(epochs=3, seed=4)
        state = init_train_state(prompts, backbone, config)
        train = _pairs(4, seed=1)
        dev = _pairs(2, seed=2)

        from promptsum import training as tr

        scores = iter([0.5, 0.9, 0.2])
        snaps = []
        original = tr._dev_rouge1

        def fake_dev(b, p, c, d):
            snaps.append({name: t.data.copy() for name, t in p.named_tensors().items()})
            return next(scores)

        tr._dev_rouge1 = fake_dev
        try:
            state = run_stage("finetune", train, dev, state, backbone, config)
        finally:
            tr._dev_rouge1 = original
        # epoch 2 scored best; returned prompts must match that snapshot
        for name, t in state.prompts.named_tensors().items():
            np.testing.assert_array_equal(t.data, snaps[1][name])
