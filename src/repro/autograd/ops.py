"""Differentiable operations for the numpy autodiff engine.

Each op computes its result eagerly, then (when any input requires grad
and grad mode is on — see :mod:`repro.autograd.grad_mode`) attaches a
backward closure that maps the upstream gradient to gradients of its
parents. Gradients are accumulated in a per-backward-pass dictionary
keyed by tensor identity (see :meth:`repro.autograd.tensor.Tensor.backward`).

Under :func:`~repro.autograd.grad_mode.no_grad` every op returns a plain
constant tensor — no parents, no closures, no ``requires_grad``
propagation. Every scatter — the segment ops forward and backward, and
the ``gather_rows`` backward — runs through :func:`segment_add_data`,
one ``numpy.bincount`` kernel for fitting and scoring alike.

The op set is intentionally scoped to what graph anomaly-detection models
need: dense linear algebra, reductions, indexing/scatter, activations, and
the segment (per-destination-node) softmax used by GAT attention.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import grad_mode
from .tensor import Tensor, as_array, ensure_tensor, unbroadcast

Axis = Union[None, int, Tuple[int, ...]]


def _acc(grads: dict, parent: Tensor, grad: np.ndarray) -> None:
    """Accumulate ``grad`` for ``parent`` into the backward-pass dict."""
    if not parent.requires_grad:
        return
    grad = unbroadcast(grad, parent.data.shape)
    key = id(parent)
    if key in grads:
        grads[key] = grads[key] + grad
    else:
        grads[key] = grad


def _make(result: np.ndarray, parents: Tuple[Tensor, ...], backward) -> Tensor:
    if grad_mode._enabled.get() and any(p.requires_grad for p in parents):
        return Tensor(result, requires_grad=True, parents=parents,
                      backward_fn=backward)
    return Tensor(result)


def segment_add_data(data: np.ndarray, segment_ids: np.ndarray,
                     num_segments: int, dtype=None) -> np.ndarray:
    """Segment sum of raw arrays into a zeroed ``dtype`` buffer (default
    ``data.dtype``), bitwise-equal to ``np.add.at``.

    ``np.bincount`` and ``np.add.at`` both walk the input once in index
    order, so each segment accumulates its contributions in the same
    sequential order — the float64 results are bit-identical while
    bincount's plain C loop is several times faster than the buffered
    ufunc machinery. Trailing feature axes are folded into the bin index
    (segment-major), which keeps per-(segment, feature) accumulation order
    intact. bincount only accumulates in float64, so any other input or
    output dtype runs ``np.add.at`` over the same folded 1-D index (its
    1-D loop is several times faster than the row-wise one, with the same
    per-cell order and bits).
    """
    out_shape = (num_segments,) + data.shape[1:]
    dtype = data.dtype if dtype is None else np.dtype(dtype)
    flat = np.ascontiguousarray(data.reshape(data.shape[0], -1))
    width = flat.shape[1]
    folded = (segment_ids if width == 1 else
              (segment_ids[:, None] * width
               + np.arange(width, dtype=np.int64)[None, :]).ravel())
    if data.dtype != np.float64 or dtype != np.float64:
        out = np.zeros(num_segments * width, dtype=dtype)
        np.add.at(out, folded, flat.ravel())
        return out.reshape(out_shape)
    out = np.bincount(folded, weights=flat.ravel(),
                      minlength=num_segments * width)
    return out.reshape(out_shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data + b.data

    def backward(grad, grads):
        _acc(grads, a, grad)
        _acc(grads, b, grad)

    return _make(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data - b.data

    def backward(grad, grads):
        _acc(grads, a, grad)
        _acc(grads, b, -grad)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data * b.data

    def backward(grad, grads):
        _acc(grads, a, grad * b.data)
        _acc(grads, b, grad * a.data)

    return _make(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data / b.data

    def backward(grad, grads):
        _acc(grads, a, grad / b.data)
        _acc(grads, b, -grad * a.data / (b.data * b.data))

    return _make(out, (a, b), backward)


def neg(a) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad, grads):
        _acc(grads, a, -grad)

    return _make(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a constant (non-tensor) exponent."""
    a = ensure_tensor(a)
    exponent = float(exponent)
    out = a.data ** exponent

    def backward(grad, grads):
        _acc(grads, a, grad * exponent * a.data ** (exponent - 1.0))

    return _make(out, (a,), backward)


def exp(a) -> Tensor:
    a = ensure_tensor(a)
    out = np.exp(a.data)

    def backward(grad, grads):
        _acc(grads, a, grad * out)

    return _make(out, (a,), backward)


def log(a, eps: float = 0.0) -> Tensor:
    """Natural log; pass ``eps`` to stabilise log of near-zero values."""
    a = ensure_tensor(a)
    safe = a.data + eps if eps else a.data
    out = np.log(safe)

    def backward(grad, grads):
        _acc(grads, a, grad / safe)

    return _make(out, (a,), backward)


def sqrt(a) -> Tensor:
    return power(a, 0.5)


def absolute(a) -> Tensor:
    a = ensure_tensor(a)
    out = np.abs(a.data)

    def backward(grad, grads):
        _acc(grads, a, grad * np.sign(a.data))

    return _make(out, (a,), backward)


def clip(a, low: Optional[float], high: Optional[float]) -> Tensor:
    """Clamp values; gradient is passed through inside the active range."""
    a = ensure_tensor(a)
    out = np.clip(a.data, low, high)
    if not (grad_mode._enabled.get() and a.requires_grad):
        return Tensor(out)
    inside = np.ones_like(a.data)
    if low is not None:
        inside = inside * (a.data >= low)
    if high is not None:
        inside = inside * (a.data <= high)

    def backward(grad, grads):
        _acc(grads, a, grad * inside)

    return _make(out, (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties send the full gradient to ``a``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)

    def backward(grad, grads):
        _acc(grads, a, grad * take_a)
        _acc(grads, b, grad * ~take_a)

    return _make(out, (a, b), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data @ b.data

    def backward(grad, grads):
        if a.requires_grad:
            if b.data.ndim == 1:
                _acc(grads, a, np.outer(grad, b.data) if a.data.ndim == 2 else grad * b.data)
            else:
                _acc(grads, a, grad @ b.data.T if grad.ndim > 1 else np.outer(grad, np.ones(1)) @ b.data.T)
        if b.requires_grad:
            if a.data.ndim == 1:
                _acc(grads, b, np.outer(a.data, grad))
            else:
                _acc(grads, b, a.data.T @ grad)

    return _make(out, (a, b), backward)


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = ensure_tensor(a)
    out = np.transpose(a.data, axes)
    inverse = None if axes is None else np.argsort(axes)

    def backward(grad, grads):
        _acc(grads, a, np.transpose(grad, inverse))

    return _make(out, (a,), backward)


def reshape(a, shape: Tuple[int, ...]) -> Tensor:
    a = ensure_tensor(a)
    out = a.data.reshape(shape)

    def backward(grad, grads):
        _acc(grads, a, grad.reshape(a.data.shape))

    return _make(out, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [ensure_tensor(t) for t in tensors]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad, grads):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            _acc(grads, part, grad[tuple(slicer)])

    return _make(out, tuple(parts), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [ensure_tensor(t) for t in tensors]
    out = np.stack([p.data for p in parts], axis=axis)

    def backward(grad, grads):
        moved = np.moveaxis(grad, axis, 0)
        for i, part in enumerate(parts):
            _acc(grads, part, moved[i])

    return _make(out, tuple(parts), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def sum(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = ensure_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad, grads):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(grads, a, np.broadcast_to(g, a.data.shape))

    return _make(out, (a,), backward)


def mean(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        count = a.data.shape[axis]

    def backward(grad, grads):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(grads, a, np.broadcast_to(g, a.data.shape) / count)

    return _make(out, (a,), backward)


def norm(a, axis: Axis = None, keepdims: bool = False, ord: int = 2, eps: float = 1e-12) -> Tensor:
    """L1 or L2 norm along ``axis`` (the two norms Eq. 19 of the paper uses)."""
    a = ensure_tensor(a)
    if ord == 2:
        sq = a.data * a.data
        total = sq.sum(axis=axis, keepdims=True)
        root = np.sqrt(total + eps)
        out = root if keepdims else np.squeeze(root, axis=axis) if axis is not None else root.reshape(())

        def backward(grad, grads):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            elif axis is None and not keepdims:
                g = np.asarray(g).reshape((1,) * a.data.ndim)
            _acc(grads, a, g * a.data / root)

        return _make(out, (a,), backward)
    if ord == 1:
        return sum(absolute(a), axis=axis, keepdims=keepdims)
    raise ValueError(f"unsupported norm order: {ord}")


def max_reduce(a, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient flows only to the (first) argmax."""
    a = ensure_tensor(a)
    out = a.data.max(axis=axis, keepdims=keepdims)
    if not (grad_mode._enabled.get() and a.requires_grad):
        return Tensor(out)
    expanded = a.data.max(axis=axis, keepdims=True)
    mask = (a.data == expanded)
    # Route gradient to the first maximum only, matching torch semantics
    # closely enough for our uses.
    first = np.cumsum(mask, axis=axis) == 1
    mask = mask & first

    def backward(grad, grads):
        g = grad if keepdims else np.expand_dims(grad, axis)
        _acc(grads, a, mask * g)

    return _make(out, (a,), backward)


# ---------------------------------------------------------------------------
# Indexing / scatter
# ---------------------------------------------------------------------------

def index(a, idx) -> Tensor:
    """General ``a[idx]``; supports int/slice/bool/integer-array indexing."""
    a = ensure_tensor(a)
    out = a.data[idx]

    def backward(grad, grads):
        if not a.requires_grad:
            return
        full = np.zeros_like(a.data)
        np.add.at(full, idx, grad)
        _acc(grads, a, full)

    return _make(out, (a,), backward)


def gather_rows(a, row_index: np.ndarray) -> Tensor:
    """Select rows ``a[row_index]`` with duplicate-safe backward scatter."""
    a = ensure_tensor(a)
    row_index = np.asarray(row_index, dtype=np.int64)
    out = a.data[row_index]

    def backward(grad, grads):
        if a.requires_grad:
            _acc(grads, a, segment_add_data(grad, row_index, a.data.shape[0],
                                            a.data.dtype))

    return _make(out, (a,), backward)


def set_rows(a, row_index: np.ndarray, value) -> Tensor:
    """Functionally overwrite ``a[row_index] = value`` (value broadcasts).

    This implements the paper's learnable ``[MASK]`` token insertion: the
    token (a ``(1, f)`` parameter) replaces the masked rows, gradient flows
    to the token for masked rows and to ``a`` elsewhere.
    """
    a, value = ensure_tensor(a), ensure_tensor(value)
    row_index = np.asarray(row_index, dtype=np.int64)
    out = a.data.copy()
    out[row_index] = value.data

    def backward(grad, grads):
        if a.requires_grad:
            ga = grad.copy()
            ga[row_index] = 0.0
            _acc(grads, a, ga)
        if value.requires_grad:
            _acc(grads, value, grad[row_index])

    return _make(out, (a, value), backward)


def segment_sum(values, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets by ``segment_ids``.

    The workhorse of message passing: with ``segment_ids = dst`` it reduces
    per-edge messages into per-node aggregates.
    """
    values = ensure_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = segment_add_data(values.data, segment_ids, num_segments)

    def backward(grad, grads):
        _acc(grads, values, grad[segment_ids])

    return _make(out, (values,), backward)


def segment_softmax(scores, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over groups of entries sharing a segment id.

    Used for GAT attention: ``scores`` are per-edge logits, segments are the
    destination nodes, and the result are attention coefficients that sum to
    one over each node's incoming edges. Numerically stabilised by a
    per-segment max shift.
    """
    scores = ensure_tensor(scores)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    data = scores.data

    seg_max = np.full((num_segments,) + data.shape[1:], -np.inf, dtype=data.dtype)
    np.maximum.at(seg_max, segment_ids, data)
    shifted = data - seg_max[segment_ids]
    expd = np.exp(shifted)
    denom = segment_add_data(expd, segment_ids, num_segments)
    out = expd / np.maximum(denom[segment_ids], 1e-30)

    def backward(grad, grads):
        if not scores.requires_grad:
            return
        weighted = grad * out
        seg_weighted = segment_add_data(weighted, segment_ids, num_segments,
                                        data.dtype)
        _acc(grads, scores, weighted - out * seg_weighted[segment_ids])

    return _make(out, (scores,), backward)


# ---------------------------------------------------------------------------
# Activations / normalisation
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    out = a.data * mask

    def backward(grad, grads):
        _acc(grads, a, grad * mask)

    return _make(out, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.2) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    scale = np.where(mask, 1.0, negative_slope)
    out = a.data * scale

    def backward(grad, grads):
        _acc(grads, a, grad * scale)

    return _make(out, (a,), backward)


def elu(a, alpha: float = 1.0) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    expm1 = alpha * np.expm1(np.minimum(a.data, 0.0))
    out = np.where(mask, a.data, expm1)

    def backward(grad, grads):
        _acc(grads, a, grad * np.where(mask, 1.0, expm1 + alpha))

    return _make(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = ensure_tensor(a)
    out = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))

    def backward(grad, grads):
        _acc(grads, a, grad * out * (1.0 - out))

    return _make(out, (a,), backward)


def tanh(a) -> Tensor:
    a = ensure_tensor(a)
    out = np.tanh(a.data)

    def backward(grad, grads):
        _acc(grads, a, grad * (1.0 - out * out))

    return _make(out, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    out = expd / expd.sum(axis=axis, keepdims=True)

    def backward(grad, grads):
        inner = (grad * out).sum(axis=axis, keepdims=True)
        _acc(grads, a, out * (grad - inner))

    return _make(out, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_den = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_den
    soft = np.exp(out)

    def backward(grad, grads):
        _acc(grads, a, grad - soft * grad.sum(axis=axis, keepdims=True))

    return _make(out, (a,), backward)


def dropout(a, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or rate is 0."""
    a = ensure_tensor(a)
    if not training or rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep) / keep
    out = a.data * mask

    def backward(grad, grads):
        _acc(grads, a, grad * mask)

    return _make(out, (a,), backward)


def row_normalize(a, eps: float = 1e-12) -> Tensor:
    """L2-normalise each row (used before cosine similarities)."""
    a = ensure_tensor(a)
    norms = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True) + eps)
    out = a.data / norms

    def backward(grad, grads):
        if not a.requires_grad:
            return
        dot = (grad * a.data).sum(axis=-1, keepdims=True)
        _acc(grads, a, grad / norms - a.data * dot / (norms ** 3))

    return _make(out, (a,), backward)


def cosine_similarity(a, b, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along ``axis`` — the attribute-reconstruction error
    kernel of Eq. (4)/(13)/(15)."""
    an = row_normalize(ensure_tensor(a), eps=eps)
    bn = row_normalize(ensure_tensor(b), eps=eps)
    return sum(mul(an, bn), axis=axis)
