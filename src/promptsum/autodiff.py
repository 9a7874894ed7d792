"""Reverse-mode automatic differentiation over NumPy arrays.

A small tape-based engine: every operation whose inputs require a gradient
records its parent tensors and a backward closure, and ``Tensor.backward()``
walks the recorded graph in reverse topological order. Inside ``no_grad()``
no operation records anything, so inference builds no tape. ``linear`` is
one node for ``x @ w + b``, and ``attention`` one fused node for multi-head
softmax attention over rows, which works in place on a single score buffer
and keeps none for its backward.
All arithmetic runs in float64 so that gradients can be checked
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one tape node, the bias added in place; ``w`` is [d_in, d_out]."""
    out_data = x.data @ w.data
    out_data += b.data

    def backward(g):
        return (
            _unbroadcast(g @ w.data.T, x.data.shape) if x.requires_grad else None,
            _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape) if w.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _result(out_data, (x, w, b), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(axes.index(i) for i in range(len(axes)))

    def backward(g):
        return (g.transpose(inverse),)

    return _result(a.data.transpose(axes), (a,), backward)


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


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    # np.add.reduce / n is what ndarray.mean computes, without its Python wrapper.
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv_std
    out_data = xhat * gamma.data
    out_data += beta.data

    lead_axes = tuple(range(out_data.ndim - 1))

    def backward(g):
        dx = None
        if x.requires_grad:
            # inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in place.
            dx = g * gamma.data
            mean_dxhat = np.add.reduce(dx, axis=-1, keepdims=True) / n
            t = dx * xhat
            np.multiply(xhat, np.add.reduce(t, axis=-1, keepdims=True) / n, out=t)
            dx -= mean_dxhat
            dx -= t
            dx *= inv_std
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
    # In place, the products and sums of tanh(C * (x + 0.044715 x³)) and
    # 0.5 x (1 + t) in their usual order.
    t = x.data * x.data
    t *= x.data
    t *= 0.044715
    t += x.data
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = 0.5 * x.data
    out_data *= 1.0 + t

    def backward(g):
        # g * (0.5 (1 + t) + 0.5 x (1 - t²) C (1 + 3 * 0.044715 x²)), in place.
        du = x.data * x.data
        du *= 3 * 0.044715
        du += 1.0
        du *= _GELU_C
        dx = 0.5 * x.data
        dx *= 1.0 - t * t
        dx *= du
        dx += 0.5 * (1.0 + t)
        dx *= g
        return (dx,)

    return _result(out_data, (x,), backward)


def _heads(a: np.ndarray, heads: int) -> np.ndarray:
    """[..., t, d] rows as a [..., heads, t, d // heads] view."""
    return np.swapaxes(a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)), -3, -2)


def _rows(a: np.ndarray) -> np.ndarray:
    """The inverse of ``_heads``: [..., heads, t, dh] as [..., t, heads * dh] rows."""
    return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (a.shape[-2], a.shape[-3] * a.shape[-1]))


# The attention backward rebuilds e and works on the score gradients of as
# many heads at a time as fit in this many bytes, so that both blocks stay in
# a core's L2 cache. One head of 300 x 300 scores is 720 KB, four of them
# 2.9 MB.
_BLOCK_BYTES = 512 * 1024

# exp overflows past 709.78 and leaves the normal range below -708.4.
_EXP_BOUND = 700.0


def _max_sq_norm(a: np.ndarray) -> np.ndarray:
    """The largest squared L2 norm of a row (last axis) of the [..., heads, t, d]
    array ``a``, over its heads and rows: one value per batch row."""
    return np.einsum("...i,...i->...", a, a).max(axis=(-2, -1))


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    scale: float,
    mask: np.ndarray | None = None,
    capture: list[np.ndarray] | None = None,
) -> Tensor:
    """Multi-head ``softmax(q @ kᵀ * scale + mask) @ v`` over [..., t, d] rows.

    ``q`` is [..., t_q, d] and ``k``/``v`` are [..., t_k, d]; leading (batch)
    axes broadcast as in ``matmul``. Head ``h`` takes the ``d // heads``
    columns from ``h * d // heads`` of each row: the op splits the rows into
    heads and merges the output rows back as NumPy views, so the tape holds
    one node.
    No pass over a ``[t_q, t_k]`` score block goes to a constant or to a
    normalisation: ``scale`` multiplies ``q`` forward and ``gq``/``gk``
    backward, and the unnormalised ``e = exp(s - m)`` has its row sums ``z``
    divide the products ``e @ v`` and ``g`` instead. The shift ``m`` is the
    row max only when an ``exp`` could overflow or underflow: when
    ``max‖q_i·scale‖ · max‖k_j‖`` (over every head of a batch row) reaches
    700, or for a single query row; otherwise the row is not shifted and the
    max pass is skipped.
    ``mask`` entries are 0 or a large negative number. The softmax
    backward's row sums ``Σ_j p_ij (g_i·v_j)`` are taken as ``g_i·out_i``,
    which they equal. The tape keeps no ``[..., heads, t_q, t_k]`` array:
    the forward's ``e`` is freed when the call returns, and the backward
    keeps only ``q·scale``, the head views of ``k`` and ``v``, the output,
    ``z`` and the shifted rows' ``m``. It rebuilds ``e`` for as many heads at
    a time as fit in ``_BLOCK_BYTES`` (one head of a long input), by the
    forward's own ops on those heads, so bit for bit; each block gives the
    value gradient and then scales that block's score gradients while both
    are in cache. Both blocks are reused buffers. A normalised copy of the
    probabilities, [..., heads, t_q, t_k], is appended to ``capture`` when
    one is given. The results agree with the chain ``matmul``, ``scale``,
    ``add``, softmax, ``matmul`` per head up to rounding, not bit for bit.
    """
    qh, kh, vh = _heads(q.data, heads), _heads(k.data, heads), _heads(v.data, heads)
    kt = np.swapaxes(kh, -1, -2)
    qs = qh * scale
    e = qs @ kt
    if mask is not None:
        e += mask
    # |s_ij| <= |q_i·scale| |k_j|: below the bound every unmasked exp lies in
    # (e^-700, e^700), so the row max need not be found. The bound is taken
    # per batch row, so that no row's result depends on the others in the
    # call. A single query row costs less to shift than to check.
    shift = True if e.shape[-2] == 1 else _max_sq_norm(qs) * _max_sq_norm(kh) >= _EXP_BOUND**2
    # The rows shifted by their max ``m``: all of them (...), the batch rows
    # a boolean mask picks, or none.
    shifted = m = None
    if np.all(shift):
        shifted, m = ..., e.max(axis=-1, keepdims=True)
        e -= m
    elif np.any(shift):
        shifted, m = shift, e[shift].max(axis=-1, keepdims=True)
        e[shifted] -= m
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    if capture is not None:
        capture.append(e / z)
    out_h = e @ vh
    out_h /= z
    e_shape, head_bytes = e.shape, e.nbytes // heads

    def backward(g):
        gn = _heads(g, heads) / z
        gn_out = np.einsum("...id,...id->...i", gn, out_h)[..., None]
        vt = np.swapaxes(vh, -1, -2)
        # Filled one block of heads at a time, then summed over broadcast axes.
        gq = np.empty(out_h.shape) if q.requires_grad else None
        gk = np.empty(e_shape[:-2] + kt.shape[-2:]) if k.requires_grad else None
        gv = np.empty(out_h.shape[:-2] + vh.shape[-2:]) if v.requires_grad else None
        step = max(1, _BLOCK_BYTES // head_bytes)
        block_shape = e_shape[:-3] + (min(step, heads),) + e_shape[-2:]
        eb_buf, gs_buf = np.empty(block_shape), np.empty(block_shape)
        for h in range(0, heads, step):
            hs = (..., slice(h, h + step), slice(None), slice(None))
            n = min(step, heads - h)
            eb, gs = eb_buf[..., :n, :, :], gs_buf[..., :n, :, :]
            # e of these heads, by the forward's ops in its order.
            np.matmul(qs[hs], kt[hs], out=eb)
            if mask is not None:
                eb += mask
            if shifted is ...:
                eb -= m[hs]
            elif shifted is not None:
                eb[shifted] -= m[hs]
            np.exp(eb, out=eb)
            if gv is not None:
                np.matmul(np.swapaxes(eb, -1, -2), gn[hs], out=gv[hs])
            # Softmax backward in place: (gn·v_j - gn·out) * e.
            np.matmul(gn[hs], vt[hs], out=gs)
            gs -= gn_out[hs]
            gs *= eb
            if gq is not None:
                np.matmul(gs, kh[hs], out=gq[hs])
            if gk is not None:
                np.matmul(np.swapaxes(qh[hs], -1, -2), gs, out=gk[hs])
        return (
            _rows(_unbroadcast(gq, qh.shape) * scale) if gq is not None else None,
            _rows(np.swapaxes(_unbroadcast(gk, kt.shape), -1, -2) * scale) if gk is not None else None,
            _rows(_unbroadcast(gv, vh.shape)) if gv is not None else None,
        )

    return _result(_rows(out_h), (q, k, v), backward)


def cross_entropy_rows(
    logits: Tensor, targets, ignore_id: int | None = None
) -> tuple[Tensor, np.ndarray]:
    """Summed negative log-likelihood of ``targets`` under row-wise softmax,
    and the NLL of each row it sums.

    Args:
        logits: [T, V] scores.
        targets: T integer class ids.
        ignore_id: Target id excluded from the loss (masked rows contribute 0).

    Returns:
        (scalar loss tensor, NLL of the unmasked rows in row order). The
        loss is that array's ``sum()``: rows scored in pieces, concatenated
        in order and summed once, give the loss of one call to the bit.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.ndim != 1 or logits.data.shape[0] != targets.shape[0]:
        raise ValueError(
            f"logits rows {logits.data.shape} must match targets length {targets.shape}"
        )
    mask = np.ones_like(targets, dtype=bool) if ignore_id is None else targets != ignore_id

    m = logits.data.max(axis=-1, keepdims=True)
    e = logits.data - m
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    rows = np.arange(targets.shape[0])
    nll = lse - logits.data[rows, targets]
    kept = nll[mask]
    out_data = np.array(kept.sum())

    def backward(g):
        p = e / z
        p[rows, targets] -= 1.0
        p[~mask] = 0.0
        p *= g
        return (p,)

    return _result(out_data, (logits,), backward), kept


def cross_entropy_sum(
    logits: Tensor, targets, ignore_id: int | None = None
) -> tuple[Tensor, int]:
    """``cross_entropy_rows``'s loss tensor and the number of unmasked positions."""
    total, kept = cross_entropy_rows(logits, targets, ignore_id)
    return total, kept.size
