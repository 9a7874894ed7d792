"""Reverse-mode automatic differentiation over NumPy arrays.

A small tape-based engine: every operation whose inputs require a gradient
records its parent tensors and a backward closure, and ``Tensor.backward()``
walks the recorded graph in reverse topological order. Inside ``no_grad()``
no operation records anything, so inference builds no tape. ``attention`` is
one fused op for softmax attention that works in place on a single score
buffer. All arithmetic runs in float64 so that gradients can be checked
against central finite differences and training runs are bitwise
reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class Tensor:
    """A float64 NumPy array plus gradient bookkeeping.

    Attributes:
        data: The underlying array.
        grad: Accumulated gradient of the same shape, or None before backward.
        requires_grad: Whether this tensor is a trainable leaf (or depends on
            one, for intermediate nodes).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple = (),
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate gradients of this scalar into the tensors that require one.

        Only tensors with ``requires_grad`` receive a gradient; subgraphs that
        do not require one are never visited. Each intermediate tensor's
        ``.grad`` is released once its closure has used it, so after the call
        only leaves hold gradients. The graph itself is left intact.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")

        # Iterative post-order DFS; decode tapes can be thousands of nodes deep.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            grads = node._backward(node.grad)
            node.grad = None
            for parent, g in zip(node._parents, grads):
                if g is not None and parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no tape inside the block: every op returns a plain tensor.

    Usable as a decorator. The mode is one process-wide switch, not one per
    thread. Nests, and restores the previous mode on exit, also when the
    block raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents: tuple, backward) -> Tensor:
    """An op's output: on the tape when a parent requires a gradient and
    recording is on, otherwise a tensor with no parents and no closure."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, backward)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes NumPy broadcasting introduced."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _result(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _result(out_data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return (g * s,)

    return _result(a.data * s, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes broadcast."""
    out_data = a.data @ b.data

    def backward(g):
        return (
            _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if a.requires_grad else None,
            _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if b.requires_grad else None,
        )

    return _result(out_data, (a, b), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(axes.index(i) for i in range(len(axes)))

    def backward(g):
        return (g.transpose(inverse),)

    return _result(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old_shape = a.data.shape

    def backward(g):
        return (g.reshape(old_shape),)

    return _result(a.data.reshape(shape), (a,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Concatenate along axis -2; leading (batch) axes broadcast. Zero-row parts are fine."""
    lead = np.broadcast_shapes(*(p.data.shape[:-2] for p in parts))
    out_data = np.concatenate(
        [np.broadcast_to(p.data, lead + p.data.shape[-2:]) for p in parts], axis=-2
    )
    offsets = np.cumsum([0] + [p.data.shape[-2] for p in parts])

    def backward(g):
        return tuple(
            _unbroadcast(g[..., offsets[i] : offsets[i + 1], :], p.data.shape)
            for i, p in enumerate(parts)
        )

    return _result(out_data, tuple(parts), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop-1 along axis -2."""

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[..., start:stop, :] += g
        return (ga,)

    return _result(a.data[..., start:stop, :], (a,), backward)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows ``a[idx]`` along axis 0; backward scatter-adds duplicates."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = a.data[idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _result(out_data, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    # np.add.reduce / n is what ndarray.mean computes, without its Python wrapper.
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out_data = xhat * gamma.data + beta.data

    lead_axes = tuple(range(out_data.ndim - 1))

    def backward(g):
        dx = None
        if x.requires_grad:
            dxhat = g * gamma.data
            dx = inv_std * (
                dxhat
                - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
                - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
            )
        dgamma = (g * xhat).sum(axis=lead_axes) if gamma.requires_grad else None
        dbeta = g.sum(axis=lead_axes) if beta.requires_grad else None
        return dx, dgamma, dbeta

    return _result(out_data, (x, gamma, beta), backward)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """Smooth GELU (tanh form); smoothness keeps finite-difference checks tight.

    The cube is two multiplications, not ``x**3``: libm ``pow`` is about a
    hundred times slower, and the two differ by at most one unit in the last
    place.
    """
    u = _GELU_C * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x.data**2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        return (g * dx,)

    return _result(out_data, (x,), backward)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: np.ndarray | None = None,
    capture: list[np.ndarray] | None = None,
) -> Tensor:
    """``softmax(q @ kᵀ * scale + mask) @ v`` over the last two axes.

    Leading (batch) axes broadcast as in ``matmul``. The scores, their
    softmax and the probabilities share one buffer, updated in place. A copy
    of the probabilities is appended to ``capture`` when one is given. Forward
    and backward run the same array operations in the same order as the
    chain ``matmul``, ``scale``, ``add``, softmax, ``matmul`` would, so the
    results are bitwise equal to it.
    """
    kt = np.swapaxes(k.data, -1, -2)
    p = q.data @ kt
    p *= scale
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if capture is not None:
        capture.append(p.copy())
    out_data = p @ v.data

    def backward(g):
        gv = _unbroadcast(np.swapaxes(p, -1, -2) @ g, v.data.shape) if v.requires_grad else None
        # Softmax backward, then the scale, in place on one fresh buffer.
        gs = _unbroadcast(g @ np.swapaxes(v.data, -1, -2), p.shape)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = _unbroadcast(gs @ k.data, q.data.shape) if q.requires_grad else None
        gk = None
        if k.requires_grad:
            gk = np.swapaxes(_unbroadcast(np.swapaxes(q.data, -1, -2) @ gs, kt.shape), -1, -2)
        return gq, gk, gv

    return _result(out_data, (q, k, v), backward)


def cross_entropy_sum(
    logits: Tensor, targets, ignore_id: int | None = None
) -> tuple[Tensor, int]:
    """Summed negative log-likelihood of ``targets`` under row-wise softmax.

    Args:
        logits: [T, V] scores.
        targets: T integer class ids.
        ignore_id: Target id excluded from the loss (masked rows contribute 0).

    Returns:
        (scalar loss tensor, number of unmasked positions)
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.ndim != 1 or logits.data.shape[0] != targets.shape[0]:
        raise ValueError(
            f"logits rows {logits.data.shape} must match targets length {targets.shape}"
        )
    mask = np.ones_like(targets, dtype=bool) if ignore_id is None else targets != ignore_id
    n = int(mask.sum())

    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    lse = m[:, 0] + np.log(e.sum(axis=-1))
    rows = np.arange(targets.shape[0])
    nll = lse - logits.data[rows, targets]
    out_data = np.array(nll[mask].sum())

    def backward(g):
        p = e / e.sum(axis=-1, keepdims=True)
        p[rows, targets] -= 1.0
        p[~mask] = 0.0
        return (p * g,)

    return _result(out_data, (logits,), backward), n
