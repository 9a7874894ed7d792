"""Finite-difference checks for every autodiff op, plus graph mechanics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptsum import autodiff as ad
from promptsum.autodiff import Tensor
from promptsum.model import _causal_mask


def _numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def _check_op(build, *shapes, seed=0, atol=1e-7):
    """build(*tensors) -> scalar Tensor; compares backward to finite differences."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = build(*tensors)
    out.backward()
    for t in tensors:
        numeric = _numeric_grad(lambda: float(build(*tensors).data), t.data)
        np.testing.assert_allclose(t.grad, numeric, atol=atol)


def _total(x: Tensor) -> Tensor:
    # Reduce to a scalar through ops under test (sum via matmul with ones).
    flat = ad.reshape(x, (1, int(np.prod(x.shape))))
    ones = Tensor(np.ones((int(np.prod(x.shape)), 1)))
    return ad.reshape(ad.matmul(flat, ones), ())


def test_add_broadcast_gradients():
    _check_op(lambda a, b: _total(ad.add(a, b)), (3, 4), (4,))
    _check_op(lambda a, b: _total(ad.add(a, b)), (2, 3, 4), (3, 4))


def test_mul_gradients():
    _check_op(lambda a, b: _total(ad.mul(a, b)), (3, 4), (3, 4))
    _check_op(lambda a, b: _total(ad.mul(a, b)), (3, 4), (4,))


def test_scale_gradient():
    _check_op(lambda a: _total(ad.scale(a, -2.5)), (5,))


def test_matmul_gradients_2d_and_batched():
    _check_op(lambda a, b: _total(ad.matmul(a, b)), (3, 4), (4, 2))
    _check_op(lambda a, b: _total(ad.matmul(a, b)), (2, 3, 4), (2, 4, 3))


def test_matmul_gradients_with_a_broadcast_operand():
    # A batch of rows against one shared matrix, as batched decoding uses it,
    # and a shared matrix against a batch; the shared side sums over the batch.
    _check_op(lambda a, b: _total(ad.matmul(a, b)), (3, 2, 1, 4), (2, 4, 5))
    _check_op(lambda a, b: _total(ad.matmul(a, b)), (4, 3), (2, 3, 2))


def test_linear_gradients():
    _check_op(lambda x, w, b: _total(ad.linear(x, w, b)), (3, 4), (4, 5), (5,))
    _check_op(lambda x, w, b: _total(ad.linear(x, w, b)), (2, 3, 4), (4, 5), (5,))


def test_linear_is_the_matmul_add_chain_bit_for_bit():
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=s) for s in ((2, 3, 4), (4, 5), (5,))]
    g = rng.normal(size=(2, 3, 5))

    def run(op):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        _total(ad.mul(out, Tensor(g))).backward()
        return [out.data] + [t.grad for t in leaves]

    got = run(ad.linear)
    want = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_transpose_reshape_gradients():
    _check_op(lambda a: _total(ad.transpose(a, (1, 0, 2))), (2, 3, 4))
    _check_op(lambda a: _total(ad.reshape(a, (6, 2))), (3, 4))


def test_concat_rows_gradients():
    _check_op(lambda a, b: _total(ad.concat_rows([a, b])), (2, 3), (4, 3))


def test_concat_rows_on_batched_rows_broadcasts_the_shared_block():
    _check_op(lambda a, b: _total(ad.concat_rows([a, b])), (3, 2, 4), (3, 1, 4))
    _check_op(lambda a, b: _total(ad.concat_rows([a, b])), (2, 4), (3, 1, 4))
    shared = Tensor(np.ones((2, 4)))
    rows = Tensor(np.zeros((3, 1, 4)))
    assert ad.concat_rows([shared, rows]).shape == (3, 3, 4)


def test_slice_rows_gradient():
    _check_op(lambda a: _total(ad.slice_rows(a, 1, 3)), (4, 3))
    _check_op(lambda a: _total(ad.slice_rows(a, 2, 5)), (2, 5, 3))


def test_concat_rows_allows_empty_block():
    a = Tensor(np.zeros((0, 3)))
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = _total(ad.concat_rows([a, b]))
    assert out.item() == 6.0
    out.backward()
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_take_rows_scatter_adds_duplicates():
    a = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
    out = _total(ad.take_rows(a, [0, 0, 2]))
    out.backward()
    np.testing.assert_array_equal(a.grad, [[2, 2], [0, 0], [1, 1]])


def test_layer_norm_gradients():
    _check_op(
        lambda x, g, b: _total(ad.layer_norm(x, g, b)),
        (4, 6),
        (6,),
        (6,),
        atol=1e-6,
    )


def test_layer_norm_normalizes():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 8)) * 3 + 1)
    out = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_gelu_gradient():
    _check_op(lambda x: _total(ad.gelu(x)), (4, 5))


def _reference_gelu(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU and ``g`` times its derivative, with the cube taken by ``pow``."""
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * x * (1.0 + t), g * dx


_GELU_VALUES = st.floats(-50, 50, allow_nan=False)
_UPSTREAM = st.floats(-1, 1, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_GELU_VALUES, _UPSTREAM), min_size=1, max_size=64))
def test_gelu_matches_the_pow_formula(pairs):
    # rtol 1e-14 holds where the values are large. In the tails one ulp of
    # tanh(u) near -1 or 1 is all that differs, and it is amplified by |x| up
    # to about 7: at most 1e-15 absolute in the value, 1e-14 in the gradient.
    x, g = (np.array(column) for column in zip(*pairs))
    xt = Tensor(x.copy(), requires_grad=True)
    out = ad.gelu(xt)
    _total(ad.mul(out, Tensor(g))).backward()
    want, want_grad = _reference_gelu(x, g)
    np.testing.assert_allclose(out.data, want, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(xt.grad, want_grad, rtol=1e-14, atol=1e-14)


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 6))
    targets = [1, 5, 0, 3]
    loss, n = ad.cross_entropy_sum(Tensor(logits), targets)
    assert n == 4
    manual = 0.0
    for row, t in zip(logits, targets):
        manual += np.log(np.exp(row).sum()) - row[t]
    assert loss.item() == pytest.approx(manual, rel=1e-12)


def test_cross_entropy_gradient_and_mask():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    targets = [2, 0, 4]

    def build():
        loss, _ = ad.cross_entropy_sum(x, targets)
        return loss

    build().backward()
    numeric = _numeric_grad(lambda: float(build().data), x.data)
    np.testing.assert_allclose(x.grad, numeric, atol=1e-7)

    masked, n = ad.cross_entropy_sum(x, [2, 0, 0], ignore_id=0)
    assert n == 1
    single, _ = ad.cross_entropy_sum(ad.take_rows(x, [0]), [2])
    assert masked.item() == pytest.approx(single.item(), rel=1e-12)


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        ad.cross_entropy_sum(Tensor(np.zeros((3, 5))), [1, 2])


def test_backward_requires_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    out = ad.reshape(ad.add(ad.mul(x, x), x), ())  # x^2 + x
    out.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_constants_collect_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3))
    out = _total(ad.mul(x, c))
    out.backward()
    assert c.grad is None
    assert x.grad is not None


def test_no_grad_records_no_tape():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    ones = Tensor(np.ones(4), requires_grad=True)
    with ad.no_grad():
        made = [ad.add(x, x), ad.mul(x, x), ad.scale(x, 2.0), ad.matmul(x, w)]
        made += [ad.transpose(x, (1, 0, 2)), ad.reshape(x, (6, 4)), ad.concat_rows([x, x])]
        made += [ad.slice_rows(x, 0, 2), ad.take_rows(w, [0, 0, 3]), ad.gelu(x)]
        made += [ad.layer_norm(x, ones, ones), ad.attention(x, x, x, 2, 0.5), ad.linear(x, w, ones)]
        made += [ad.cross_entropy_sum(w, [0, 1, 2, 3])[0], Tensor(np.ones(2), requires_grad=True)]
    for t in made:
        assert t._parents == () and t._backward is None
    assert ad.add(x, x)._parents == (x, x)


def test_no_grad_restored_after_nesting_and_exceptions():
    x = Tensor(np.ones(3), requires_grad=True)

    def records() -> bool:
        return ad.add(x, x).requires_grad

    with ad.no_grad():
        with ad.no_grad():
            assert not records()
        assert not records()
    assert records()

    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError
    assert records()

    @ad.no_grad()
    def fails():
        assert not records()
        raise RuntimeError

    with pytest.raises(RuntimeError):
        fails()
    assert records()


# --------------------------------------------------------------------------
# The fused attention op against the unfused chain it replaced
# --------------------------------------------------------------------------


def _softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return Tensor(p, x.requires_grad, (x,), backward)


def _swapped(ndim: int, a: int, b: int) -> tuple[int, ...]:
    axes = list(range(ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return tuple(axes)


def _unfused_attention(q, k, v, heads, scale, mask=None, capture=None):
    """Split into heads, matmul, scale, mask add, softmax, matmul and merge the
    heads: one tape node each, as the model ran attention before the fused op."""

    def split(x):
        x = ad.reshape(x, x.shape[:-1] + (heads, x.shape[-1] // heads))
        return ad.transpose(x, _swapped(x.data.ndim, -3, -2))

    q, k, v = split(q), split(k), split(v)
    scores = ad.scale(ad.matmul(q, ad.transpose(k, _swapped(k.data.ndim, -1, -2))), scale)
    if mask is not None:
        scores = ad.add(scores, mask)
    probs = _softmax(scores)
    if capture is not None:
        capture.append(probs.data.copy())
    out = ad.transpose(ad.matmul(probs, v), _swapped(probs.data.ndim, -3, -2))
    return ad.reshape(out, out.shape[:-2] + (out.shape[-2] * out.shape[-1],))


def test_softmax_rows_sum_to_one_and_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 7)))
    p = _softmax(x)
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
    _check_op(lambda x: _total(ad.mul(_softmax(x), x)), (3, 5))


@st.composite
def _attention_cases(draw):
    """Row shapes, heads, a mask, which operands need a gradient and whether
    q and k pass the exp bound, for one call.

    ``batch`` puts a leading axis on q only (K/V broadcast) or on q, k and v.
    A causal mask covers query rows start..t-1 over key rows 0..t-1, as a
    cached decoder call uses it.
    """
    heads, dh = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    keys = draw(st.integers(1, 6))
    masked = draw(st.booleans())
    if masked:
        start = draw(st.integers(0, keys - 1))
        queries, mask = keys - start, _causal_mask(keys, start)
    else:
        queries, mask = draw(st.integers(1, 5)), None
    batch = draw(st.sampled_from(["none", "q", "qkv"]))
    lead = (draw(st.integers(1, 3)),) if batch != "none" else ()
    kv_lead = lead if batch == "qkv" else ()
    d = heads * dh
    shapes = (lead + (queries, d), kv_lead + (keys, d), kv_lead + (keys, d))
    grads = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any))
    past_bound = dh > 1 and draw(st.booleans())
    return shapes, heads, mask, grads, past_bound, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _head_norms(x: np.ndarray, heads: int) -> np.ndarray:
    return np.linalg.norm(x.reshape(x.shape[:-1] + (heads, -1)), axis=-1)


# The fused op scales q rather than the scores, divides e @ v rather than e,
# takes the softmax backward's row sums as g·out and shifts the scores by
# their row max only near the exp bound. Each reorders rounding only: over
# 1500 random cases the worst difference was 1.5e-15 of 1 + max|ref|, and
# 2.9e-14 where q and k pass the bound (c of about 30 scales the rounding).
_ATTENTION_TOL = 1e-13


def _assert_close(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= _ATTENTION_TOL * (1.0 + np.max(np.abs(ref), initial=0.0))


@settings(max_examples=150, deadline=None)
@given(_attention_cases())
def test_attention_matches_the_unfused_chain(case):
    shapes, heads, mask, grads, past_bound, capture, seed = case
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    scale = 1.0 / np.sqrt(shapes[0][-1] // heads)
    if past_bound:
        # In every head, q's first column and k's second are set to c and the
        # other side's to 0: max|q_i·scale| · max|k_j| passes 700, where the op
        # shifts by the exact row max, and the scores keep their drawn size.
        c = np.sqrt(rng.uniform(700, 800) / scale)
        for x, (big, zero) in zip(arrays[:2], ((0, 1), (1, 0))):
            cols = x.reshape(x.shape[:-1] + (heads, -1))
            cols[..., big] = c
            cols[..., zero] = 0.0
        assert scale * _head_norms(arrays[0], heads).max() * _head_norms(arrays[1], heads).max() >= 700

    def run(op):
        leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, grads)]
        probs = [] if capture else None
        out = op(*leaves, heads, scale, mask, probs)
        weights = Tensor(np.random.default_rng(seed).normal(size=out.shape))
        _total(ad.mul(out, weights)).backward()
        return out, leaves, probs

    out, leaves, probs = run(ad.attention)
    ref_out, ref_leaves, ref_probs = run(_unfused_attention)
    _assert_close(out.data, ref_out.data)
    for leaf, ref in zip(leaves, ref_leaves):
        assert (leaf.grad is None) == (ref.grad is None)
        if leaf.grad is not None:
            _assert_close(leaf.grad, ref.grad)
    if capture:
        assert len(probs) == len(ref_probs) == 1
        _assert_close(probs[0], ref_probs[0])
        np.testing.assert_allclose(probs[0].sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    # The backward's blocks of heads change no bit: here all heads share one
    # block, and with a 1-byte budget each head has its own.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "_BLOCK_BYTES", 1)
        one_out, one_leaves, _ = run(ad.attention)
    assert one_out.data.tobytes() == out.data.tobytes()
    for leaf, one in zip(leaves, one_leaves):
        assert (leaf.grad is None and one.grad is None) or leaf.grad.tobytes() == one.grad.tobytes()


@pytest.mark.parametrize("block_bytes", [ad._BLOCK_BYTES, 1], ids=["one block", "a block per head"])
@pytest.mark.parametrize("shared_kv", [False, True], ids=["own K/V", "shared K/V"])
def test_a_batch_row_past_the_exp_bound_leaves_the_other_rows_bitwise(monkeypatch, shared_kv, block_bytes):
    # The backward rebuilds e and shifts the shifted rows only: each batch
    # row's output and gradients are those of the row attending alone.
    monkeypatch.setattr(ad, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(3)
    q = rng.normal(size=(2, 3, 8))
    q[1] *= 300.0  # row 1 passes the bound, row 0 stays far below it
    kv_shape = (4, 8) if shared_kv else (2, 4, 8)
    k, v = rng.normal(size=kv_shape), rng.normal(size=kv_shape)
    w = rng.normal(size=q.shape)

    def run(q, k, v, w):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (q, k, v)]
        out = ad.attention(*leaves, 2, 0.5)
        _total(ad.mul(out, Tensor(w))).backward()
        return out.data, [leaf.grad for leaf in leaves]

    for b in range(2):
        # The loss reads batch row b alone, so shared K/V gradients are row b's too.
        wb = np.zeros_like(w)
        wb[b] = w[b]
        out, (gq, gk, gv) = run(q, k, v, wb)
        kb, vb = (k, v) if shared_kv else (k[b], v[b])
        row_out, (row_gq, row_gk, row_gv) = run(q[b], kb, vb, w[b])
        assert out[b].tobytes() == row_out.tobytes()
        assert gq[b].tobytes() == row_gq.tobytes()
        for batched, row in ((gk, row_gk), (gv, row_gv)):
            assert (batched if shared_kv else batched[b]).tobytes() == row.tobytes()


def _arrays_reachable(closure) -> list[np.ndarray]:
    """Every ndarray a backward closure's cells reach, through tensors, tuples,
    lists and the bases of views."""
    arrays, seen = [], set()
    stack = [cell.cell_contents for cell in closure]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            arrays.append(x)
            stack.append(x.base)
        elif isinstance(x, Tensor):
            stack.append(x.data)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
    return arrays


@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "shifted, causal"])
def test_the_tape_keeps_no_score_buffer(shifted):
    # The encoder's shape: 300 rows of d 64 in 4 heads. With scale 100 every
    # row passes the exp bound, so the closure keeps the shift m beside z.
    t, d, heads = 300, 64, 4
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.normal(size=(t, d)), requires_grad=True) for _ in range(3))
    out = ad.attention(q, k, v, heads, 100.0 if shifted else 0.125, _causal_mask(t) if shifted else None)
    arrays = _arrays_reachable(out._backward.__closure__)
    assert sum(a.shape == (heads, t, 1) for a in arrays) == (2 if shifted else 1)
    assert max(a.size for a in arrays) < heads * t * t
    _total(out).backward()
    assert all(np.isfinite(x.grad).all() for x in (q, k, v))


@pytest.mark.parametrize(
    "shapes, start",
    [
        (((3, 6), (4, 6), (4, 6)), None),
        (((2, 1, 6), (4, 6), (4, 6)), None),
        (((2, 2, 6), (2, 4, 6), (2, 4, 6)), 2),
    ],
    ids=["no batch", "batch on q", "batch on qkv, causal"],
)
def test_attention_gradient(shapes, start):
    mask = None if start is None else _causal_mask(shapes[1][-2], start)
    _check_op(lambda q, k, v: _total(ad.attention(q, k, v, 2, 0.7, mask)), *shapes, atol=1e-4)
