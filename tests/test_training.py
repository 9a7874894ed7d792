"""Loss, schedule, optimizer stepping, freezing, and gradient verification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsum import autodiff as ad
from promptsum import training
from promptsum.corpus import EOS_ID, PAD_ID, SummaryPair
from promptsum.decoding import beam_search, greedy_decode
from promptsum.model import STRATEGIES, PromptConfig, forward, init_prompts
from promptsum.rouge import rouge_l_f1, rouge_n_f1
from promptsum.training import (
    MODES,
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

    @pytest.mark.parametrize("steps", [0, -3])
    def test_warmup_steps_below_one_rejected(self, steps):
        with pytest.raises(ValueError, match=f"warmup_steps must be >= 1, got {steps}"):
            _quick_config(warmup_steps=steps)

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


def _one_tape(backbone, prompts, config, chunks):
    """The one-tape reference for train_step's accumulation: each chunk's
    ``batch_mean_nll`` on one tape, backward scaled by 1 / len(chunks).
    Returns the chunk losses, the roots and the prompt gradients."""
    for t in list(prompts.named_tensors().values()) + list(backbone.params.values()):
        t.zero_grad()
    losses, roots = [], []
    for chunk in chunks:
        loss, _ = batch_mean_nll(backbone, prompts, config, chunk)
        root = ad.scale(loss, 1.0 / len(chunks))
        root.backward()
        losses.append(float(loss.data))
        roots.append(root)
    grads = {n: None if t.grad is None else t.grad.copy() for n, t in prompts.named_tensors().items()}
    return losses, roots, grads


class TestLeanBackward:
    """The frozen-backbone backward against the same graph with every leaf
    unfrozen, where every closure computes every parent's gradient."""

    @settings(max_examples=30, deadline=None)
    @given(_lean_cases())
    def test_frozen_matches_unfrozen_bitwise(self, case):
        model, pairs, grad_accum = case
        backbone, prompts, config = tiny_model(**model)
        chunks = _chunk(pairs, grad_accum)

        backbone.unfreeze()
        ref_losses, ref_roots, ref_grads = _one_tape(backbone, prompts, config, chunks)
        backbone.freeze()
        losses, roots, grads = _one_tape(backbone, prompts, config, chunks)

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
        per_chunk = [_one_tape(backbone, prompts, config, [c])[2] for c in chunks]
        for name, g in grads.items():
            if g is not None:
                expected = sum(p[name] for p in per_chunk) / len(chunks)
                np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-12)


@st.composite
def _accum_cases(draw):
    """A model of any inner-prompt strategy, shared or not, and pairs of mixed
    lengths whose summaries hold PAD (also after an inner EOS)."""
    vocab = draw(st.integers(8, 14))
    len_en = draw(st.integers(0, 3))
    shared = draw(st.booleans())
    model = dict(
        seed=draw(st.integers(0, 10_000)),
        vocab=vocab,
        layers=draw(st.integers(1, 2)),
        len_en=len_en,
        len_de=len_en if shared else draw(st.integers(0, 3)),
        shared=shared,
        strategy=draw(st.sampled_from(STRATEGIES)),
        k=draw(st.integers(1, 3)),
    )
    words = st.lists(st.integers(4, vocab - 1), min_size=1, max_size=5)
    token = st.one_of(st.integers(4, vocab - 1), st.sampled_from([PAD_ID, EOS_ID]))
    summary = st.lists(token, max_size=6).map(lambda ids: tuple(ids) + (EOS_ID,))
    pair = st.builds(lambda doc, ids: SummaryPair(make_doc(*doc), ids), st.lists(words, min_size=1, max_size=3), summary)
    pairs = draw(st.lists(pair, min_size=1, max_size=5))
    return model, pairs, draw(st.integers(1, 3))


class TestPerPairAccumulation:
    """train_step runs one pair's tape at a time; the one-tape reference runs
    each chunk on one tape. Both take the same gradient step."""

    @staticmethod
    def _grads(tensors):
        return {n: None if t.grad is None else t.grad.copy() for n, t in tensors.items()}

    @staticmethod
    def _model(model, mode):
        backbone, prompts, config = tiny_model(**model)
        if mode == "prompt_only":
            backbone.freeze()
        return backbone, prompts, config

    def _step(self, case, mode):
        """The reference's chunk losses and gradients, then those of train_step,
        from the same starting point."""
        model, pairs, grad_accum = case
        backbone, prompts, config = self._model(model, mode)
        tensors = trainable_tensors(backbone, prompts, mode)
        ref_losses, _, _ = _one_tape(backbone, prompts, config, _chunk(pairs, grad_accum))
        ref_grads = self._grads(tensors)
        step_config = _quick_config(mode=mode, batch=len(pairs), grad_accum=grad_accum)
        state, loss = train_step(init_train_state(prompts, backbone, step_config), backbone, pairs, step_config)
        chunk_losses = []
        for chunk in _chunk(pairs, grad_accum):  # one chunk per step: its loss is the step's
            backbone, prompts, _ = self._model(model, mode)
            alone = _quick_config(mode=mode, batch=len(chunk), grad_accum=1)
            chunk_losses.append(train_step(init_train_state(prompts, backbone, alone), backbone, chunk, alone)[1])
        return ref_losses, ref_grads, loss, chunk_losses, self._grads(tensors)

    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=30, deadline=None)
    @given(case=_accum_cases())
    def test_train_step_takes_the_one_tape_step(self, mode, case):
        ref_losses, ref_grads, loss, chunk_losses, grads = self._step(case, mode)
        for got, want in zip(chunk_losses + [loss], ref_losses + [float(np.mean(ref_losses))]):
            assert got.hex() == want.hex()
        for name, g in grads.items():
            want = ref_grads[name]
            assert (g is None) == (want is None), name
            if g is None:
                continue
            if name.startswith("prompts/"):
                assert g.tobytes() == want.tobytes(), name
            else:
                # full_model: a backbone tensor's gradient adds up pair by
                # pair here, in the one tape's backward order there.
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-14, err_msg=name)


def test_a_train_step_holds_one_pairs_tape_at_a_time():
    # A d=32, one-layer model with 20 + 20 prompts, 60-token sources and
    # eight pairs, after one warm-up step. tracemalloc counts NumPy's
    # buffers: a deterministic measure, no RSS. The eight pairs are alike, so
    # a step that holds one pair's tape at a time peaks as a one-pair step
    # does (0.99x); one that keeps the previous pair's tape through the next
    # forward reads 1.11x, one tape for all 4.9x.
    backbone, prompts, _ = tiny_model(
        vocab=200, d=32, heads=4, ffn=64, max_pos=128, len_en=20, len_de=20, strategy="none"
    )
    backbone.freeze()
    rng = np.random.default_rng(0)
    pairs = [
        make_pair(
            make_doc(*([int(v) for v in rng.integers(4, 200, size=10)] for _ in range(6))),
            [int(v) for v in rng.integers(4, 200, size=10)],
        )
        for _ in range(8)
    ]
    config = TrainConfig(peak_lr=1e-2, warmup_steps=10, batch=8, grad_accum=1)
    state = init_train_state(prompts, backbone, config)
    train_step(state, backbone, pairs, config)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        peaks = {}
        for n in (1, 8):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train_step(state, backbone, pairs[:n], config)
            peaks[n] = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peaks[8] <= 1.05 * peaks[1], peaks


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
        # different lengths, their logits joined on one tape.
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
        out = run_stage(_pairs(4), [], state, backbone, config)
        assert out is state
        np.testing.assert_array_equal(prompts.p_en.data, before)
        assert backbone.frozen  # prompt_only freezes the backbone before any epoch
        assert state.selected == {"by": "final", "epoch": 0}

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_epochs_applies_the_modes_freeze(self, mode):
        # The backbone starts in the state the other mode leaves it in.
        backbone, prompts, _ = tiny_model()
        if mode == "full_model":
            backbone.freeze()
        config = _quick_config(mode=mode, epochs=0)
        state = init_train_state(prompts, backbone, config)
        run_stage(_pairs(4), [], state, backbone, config)
        assert backbone.frozen == (mode == "prompt_only")
        assert state.step == 0 and state.loss_history == []

    def test_zero_epochs_with_dev_set_decodes_nothing(self, monkeypatch):
        import promptsum.training as training

        def no_dev_pass(*args):
            raise AssertionError("dev set decoded with zero epochs")

        monkeypatch.setattr(training, "_dev_rouge1", no_dev_pass)
        backbone, prompts, _ = tiny_model()
        config = _quick_config(epochs=0)
        state = init_train_state(prompts, backbone, config)
        run_stage(_pairs(4), _pairs(2, seed=1), state, backbone, config)
        assert state.selected == {"by": "final", "epoch": 0}
        assert state.loss_history == []

    def test_empty_data_rejected(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config()
        state = init_train_state(prompts, backbone, config)
        with pytest.raises(ValueError, match="empty"):
            run_stage([], [], state, backbone, config)

    def test_no_dev_returns_final(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config(epochs=2)
        state = init_train_state(prompts, backbone, config)
        state = run_stage(_pairs(4), [], state, backbone, config)
        assert state.selected == {"by": "final", "epoch": 2}
        assert not [e for e in state.loss_history if "dev_rouge1" in e]

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
        state = run_stage(pairs, [], state, backbone, config)
        assert state.selected == {"by": "final", "epoch": 25}
        final, _ = batch_mean_nll(backbone, state.prompts, pconfig, pairs)
        assert final.item() < initial.item()

    def test_warmup_ratio_resolves(self):
        backbone, prompts, _ = tiny_model()
        config = _quick_config(warmup_steps=None, warmup_ratio=0.5, epochs=2)
        state = init_train_state(prompts, backbone, config)
        state = run_stage(_pairs(2), [], state, backbone, config)
        assert state.selected == {"by": "final", "epoch": 2}
        # 2 epochs x 1 step each, 50% ratio -> warmup_steps 1: peak hit at step 1
        assert state.loss_history[0]["lr"] == pytest.approx(config.peak_lr)

    def test_each_epoch_logs_its_dev_rouge1(self, monkeypatch):
        from promptsum import training as tr

        backbone, prompts, _ = tiny_model()
        config = _quick_config(epochs=3, seed=4)
        state = init_train_state(prompts, backbone, config)
        scores = iter([0.5, 0.9, 0.2])
        monkeypatch.setattr(tr, "_dev_rouge1", lambda b, p, c, d: next(scores))
        state = run_stage(_pairs(4, seed=1), _pairs(2, seed=2), state, backbone, config)
        epochs = [e for e in state.loss_history if "epoch" in e]
        dev_s = [e.pop("dev_s") for e in epochs]
        assert all(isinstance(t, float) and t >= 0 for t in dev_s)
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
            state = run_stage(train, dev, state, backbone, config)
        finally:
            tr._dev_rouge1 = original
        # epoch 2 scored best; returned prompts must match that snapshot
        for name, t in state.prompts.named_tensors().items():
            np.testing.assert_array_equal(t.data, snaps[1][name])


def reference_dev_rouge1(backbone, prompts, pconfig, dev, generations=None):
    """The dev pass in its own loop, as ``training`` ran it before it became one
    ``evaluate`` call at beam 1: greedy-decode each document up to the longest
    summary (EOS included), drop EOS, average the ROUGE-1 F1s. Appends each
    decode, its cap and its reference to ``generations`` when given."""
    max_len = max(len(p.summary) for p in dev)
    scores = []
    for pair in dev:
        gen = greedy_decode(backbone, prompts, pconfig, pair.document, max_len=max_len)
        if generations is not None:
            generations.append((list(gen), max_len, pair.summary_content))
        cand = [t for t in gen if t != EOS_ID]
        scores.append(rouge_n_f1(cand, pair.summary_content, 1))
    return float(np.mean(scores))


@st.composite
def _dev_cases(draw):
    """A model of any strategy and mode, train and dev pairs, epochs and a seed.
    A vocabulary of 6-9 ids makes EOS-first decodes common; dev summaries of
    0-3 words plus EOS cap the decode at 1-4 tokens."""
    vocab = draw(st.integers(6, 9))
    len_en = draw(st.integers(0, 3))
    shared = draw(st.booleans())
    model = dict(
        seed=draw(st.integers(0, 10_000)),
        vocab=vocab,
        layers=draw(st.integers(1, 2)),
        len_en=len_en,
        len_de=len_en if shared else draw(st.integers(0, 3)),
        shared=shared,
        strategy=draw(st.sampled_from(STRATEGIES)),
        k=draw(st.integers(1, 3)),
    )
    words = st.lists(st.integers(4, vocab - 1), min_size=1, max_size=4)
    summary = st.lists(st.integers(4, vocab - 1), max_size=3).map(lambda ids: tuple(ids) + (EOS_ID,))
    pair = st.builds(lambda doc, ids: SummaryPair(make_doc(*doc), ids), st.lists(words, min_size=1, max_size=3), summary)
    train, dev = draw(st.lists(pair, min_size=1, max_size=3)), draw(st.lists(pair, min_size=1, max_size=3))
    return model, draw(st.sampled_from(MODES)), train, dev, draw(st.integers(1, 3)), draw(st.integers(0, 100))


def _staged(case, dev_pass):
    """run_stage on a fresh build of the case's model, with ``dev_pass`` as the
    dev scorer. Returns the loss history (floats as hex, no wall times), the
    selection and the trainable tensors' bytes."""
    model, mode, train, dev, epochs, seed = case
    backbone, prompts, _ = tiny_model(**model)
    config = _quick_config(mode=mode, epochs=epochs, seed=seed)
    original = training._dev_rouge1
    training._dev_rouge1 = dev_pass
    try:
        state = run_stage(train, dev, init_train_state(prompts, backbone, config), backbone, config)
    finally:
        training._dev_rouge1 = original
    rows = [
        {k: v.hex() if isinstance(v, float) else v for k, v in row.items() if k not in ("wall_s", "dev_s")}
        for row in state.loss_history
    ]
    tensors = {n: t.data.tobytes() for n, t in trainable_tensors(backbone, state.prompts, mode).items()}
    return rows, state.selected, tensors


class TestDevPass:
    """run_stage's dev pass, one ``evaluate`` call at beam 1, against the old loop."""

    def test_equals_the_old_loop_on_eos_first_and_capped_decodes(self):
        # Over three epochs this case decodes EOS first, runs into the
        # five-token cap, and scores a decode whose ROUGE-L differs from its
        # ROUGE-1 (so a report field mixed up would show).
        dev = [
            make_pair(make_doc([6, 6, 6]), [6, 5, 4, 6]),
            make_pair(make_doc([6, 4, 4]), [6, 4, 6]),
            make_pair(make_doc([5, 4, 5]), [4, 6, 6]),
        ]
        case = (dict(seed=50, vocab=7, strategy="none"), "prompt_only", _pairs(3, seed=3, vocab=7), dev, 3, 0)
        generations = []
        oracle = _staged(case, lambda b, p, c, d: reference_dev_rouge1(b, p, c, d, generations))
        assert _staged(case, training._dev_rouge1) == oracle
        assert any(gen[0] == EOS_ID for gen, _, _ in generations)
        assert any(len(gen) == max_len and EOS_ID not in gen for gen, max_len, _ in generations)
        stripped = [([t for t in gen if t != EOS_ID], ref) for gen, _, ref in generations]
        assert any(rouge_n_f1(cand, ref, 1) != rouge_l_f1(cand, ref) for cand, ref in stripped)

    @settings(max_examples=30, deadline=None)
    @given(case=_dev_cases())
    def test_epoch_rows_equal_the_old_loops(self, case):
        rows, selected, tensors = _staged(case, training._dev_rouge1)
        oracle_rows, oracle_selected, oracle_tensors = _staged(case, reference_dev_rouge1)
        assert [r for r in rows if "epoch" in r] == [r for r in oracle_rows if "epoch" in r]
        assert (rows, selected, tensors) == (oracle_rows, oracle_selected, oracle_tensors)
