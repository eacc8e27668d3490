"""Differentiable primitives.

Each primitive has a numpy forward and a VJP over numpy arrays.  A primitive
hands its VJP function to `make_op_output`, which stores it on the output
node; that function object is the op's only identity on the tape.
``vjp(node, g, need)`` takes the node, the gradient at its output and one
flag per parent, and returns one array per parent; a VJP may return None
for a parent whose flag is False, and skips that parent's arithmetic.  A
VJP records nothing, so the tape is first order.  The input-gradient of
`conv_valid` is another valid convolution, with the zero-padded output
gradient and the adjoint kernel (in/out channels swapped, taps reversed).

These are the general primitives.  ``losses.l1_plus_bce`` is one more,
built the same way, that fuses the reconstruction loss into one node.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from .. import kernels
from .tensor import Tensor, as_tensor, coerce_pair, make_op_output


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape`` (adjoint of numpy
    broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _pad_last(a: np.ndarray, left: int, right: int) -> np.ndarray:
    """``a`` with ``left`` and ``right`` zeros on its last axis."""
    if left == 0 and right == 0:
        return a
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + left + right,), dtype=a.dtype)
    out[..., left : left + a.shape[-1]] = a
    return out


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data + b.data, _add_vjp, (a, b))


def _add_vjp(node, g, need):
    a, b = node._parents
    return (
        _sum_to(g, a.shape) if need[0] else None,
        _sum_to(g, b.shape) if need[1] else None,
    )


def sub(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data - b.data, _sub_vjp, (a, b))


def _sub_vjp(node, g, need):
    a, b = node._parents
    return (
        _sum_to(g, a.shape) if need[0] else None,
        _sum_to(-g, b.shape) if need[1] else None,
    )


def mul(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data * b.data, _mul_vjp, (a, b))


def _mul_vjp(node, g, need):
    a, b = node._parents
    return (
        _sum_to(g * b.data, a.shape) if need[0] else None,
        _sum_to(g * a.data, b.shape) if need[1] else None,
    )


def div(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data / b.data, _div_vjp, (a, b))


def _div_vjp(node, g, need):
    a, b = node._parents
    return (
        _sum_to(g / b.data, a.shape) if need[0] else None,
        _sum_to(-(g * node.data / b.data), b.shape) if need[1] else None,
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(-a.data, _neg_vjp, (a,))


def _neg_vjp(node, g, need):
    return (-g,)


def matmul(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(np.matmul(a.data, b.data), _matmul_vjp, (a, b))


def _matmul_vjp(node, g, need):
    a, b = node._parents
    ga = gb = None
    if need[0]:
        ga = _sum_to(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
    if need[1]:
        gb = _sum_to(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
    return (ga, gb)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    # view, not copy: consumers never mutate op outputs
    return make_op_output(
        np.swapaxes(a.data, ax1, ax2), _swapaxes_vjp, (a,), {"axes": (ax1, ax2)}
    )


def _swapaxes_vjp(node, g, need):
    return (np.swapaxes(g, *node._ctx["axes"]),)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return make_op_output(a.data.reshape(shape), _reshape_vjp, (a,))


def _reshape_vjp(node, g, need):
    return (g.reshape(node._parents[0].shape),)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return make_op_output(
        a.data.sum(axis=axis, keepdims=keepdims),
        _tsum_vjp,
        (a,),
        {"axis": axis, "keepdims": keepdims},
    )


def _tsum_vjp(node, g, need):
    (a,) = node._parents
    axis = node._ctx["axis"]
    if axis is not None and not node._ctx["keepdims"]:
        g = np.expand_dims(g, axis)
    # read-only view; the sweep only reads gradients
    return (np.broadcast_to(g, a.shape),)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        n = 1
        for ax in axes:
            n *= a.shape[ax]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    return make_op_output(a.data[idx].copy(), _narrow_vjp, (a,), {"idx": idx})


def _narrow_vjp(node, g, need):
    out = np.zeros(node._parents[0].shape, dtype=g.dtype)
    out[node._ctx["idx"]] = g
    return (out,)


def concat(tensors, axis: int) -> Tensor:
    parts = tuple(as_tensor(t) for t in tensors)
    return make_op_output(
        np.concatenate([p.data for p in parts], axis=axis),
        _concat_vjp,
        parts,
        {"axis": axis},
    )


def _concat_vjp(node, g, need):
    axis = node._ctx["axis"]
    bounds = np.cumsum([p.shape[axis] for p in node._parents])[:-1]
    pieces = np.split(g, bounds, axis=axis)
    return tuple(piece.copy() if n else None for piece, n in zip(pieces, need))


def pad_time(a, left: int, right: int) -> Tensor:
    """Zero-pad the last axis."""
    a = as_tensor(a)
    if left == 0 and right == 0:
        return a
    return make_op_output(
        _pad_last(a.data, left, right), _pad_time_vjp, (a,), {"left": left}
    )


def _pad_time_vjp(node, g, need):
    left, t = node._ctx["left"], node._parents[0].shape[-1]
    return (g[..., left : left + t].copy(),)


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.exp(a.data), _exp_vjp, (a,))


def _exp_vjp(node, g, need):
    return (g * node.data,)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.sqrt(a.data), _sqrt_vjp, (a,))


def _sqrt_vjp(node, g, need):
    return (g * 0.5 / node.data,)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(scipy.special.expit(a.data), _sigmoid_vjp, (a,))


def _sigmoid_vjp(node, g, need):
    y = node.data
    return (g * (y * (1 - y)),)


def relu(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.maximum(a.data, 0), _relu_vjp, (a,), {"mask": a.data > 0})


def _relu_vjp(node, g, need):
    return (g * node._ctx["mask"].astype(node.dtype),)


def softmax(a, axis: int) -> Tensor:
    """Numerically stable softmax.  The max shift is a detached constant,
    which leaves the gradient exact."""
    a = as_tensor(a)
    shift = Tensor(a.data.max(axis=axis, keepdims=True))
    e = exp(sub(a, shift))
    return div(e, tsum(e, axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# embedding lookup
# ---------------------------------------------------------------------------


def embedding(table, indices: np.ndarray) -> Tensor:
    """Row lookup: table (V, E), integer indices of any shape -> (..., E)."""
    table = as_tensor(table)
    idx = np.asarray(indices)
    return make_op_output(
        table.data[idx], _embedding_vjp, (table,), {"idx": idx}
    )


def _embedding_vjp(node, g, need):
    # each looked-up row's gradient summed into its table row
    v, e = node._parents[0].shape
    out = np.zeros((v, e), dtype=g.dtype)
    np.add.at(out, node._ctx["idx"].ravel(), g.reshape(-1, e))
    return (out,)


# ---------------------------------------------------------------------------
# adjacent-pair sums (mean pooling support)
# ---------------------------------------------------------------------------


def pair_sum(a) -> Tensor:
    """Sums of adjacent sample pairs along an even-length last axis:
    (..., 2T) -> (..., T).  Two strided views added, where a reduction over
    a trailing axis of length 2 runs an order of magnitude slower."""
    a = as_tensor(a)
    return make_op_output(a.data[..., 0::2] + a.data[..., 1::2], _pair_sum_vjp, (a,))


def _pair_sum_vjp(node, g, need):
    return (np.repeat(g, 2, axis=-1),)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv_valid(x, w, dilation: int = 1) -> Tensor:
    """Valid dilated convolution: (B, Ci, Tp) x (Co, Ci, K) -> (B, Co, To)."""
    x, w = as_tensor(x), as_tensor(w)
    return make_op_output(
        kernels.conv_valid(x.data, w.data, dilation),
        _conv_valid_vjp,
        (x, w),
        {"dilation": dilation},
    )


def _conv_valid_vjp(node, g, need):
    x, w = node._parents
    d = node._ctx["dilation"]
    k = w.shape[2]
    gx = gw = None
    if need[0]:
        adjoint = np.ascontiguousarray(np.swapaxes(w.data, 0, 1)[:, :, ::-1])
        gx = kernels.conv_valid(_pad_last(g, (k - 1) * d, (k - 1) * d), adjoint, d)
    if need[1]:
        gw = kernels.conv_weight_grad(x.data, g, d, k)
    return (gx, gw)
