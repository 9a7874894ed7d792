"""Finite-difference checks for every autodiff op, plus graph mechanics."""

import numpy as np
import pytest

from promptsum import autodiff as ad
from promptsum.autodiff import Tensor


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


def test_softmax_rows_sum_to_one_and_gradient():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 7)))
    p = ad.softmax(x)
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
    _check_op(lambda x: _total(ad.mul(ad.softmax(x), x)), (3, 5))


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
