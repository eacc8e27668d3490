"""Differentiable primitives.

Each primitive has a numpy forward and a VJP expressed through other
primitives, so the backward pass can itself be traced (second-order
gradients come for free).  A primitive hands its VJP function to
`make_op_output`, which stores it on the output node; that function object
is the op's only identity on the tape.  The convolution family is closed under
differentiation: the input-gradient of `conv_valid` is another
`conv_valid` with the adjoint kernel, and the two gradients of
`conv_weight_grad` are again `conv_valid` compositions.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from .. import kernels
from .tensor import Tensor, as_tensor, coerce_pair, make_op_output


# ---------------------------------------------------------------------------
# broadcasting helpers
# ---------------------------------------------------------------------------


def sum_to(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a broadcast gradient back to ``shape`` (adjoint of numpy
    broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data + b.data, _add_vjp, (a, b))


def _add_vjp(node, g):
    a, b = node._parents
    return (
        sum_to(g, a.shape) if a.requires_grad else None,
        sum_to(g, b.shape) if b.requires_grad else None,
    )


def sub(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data - b.data, _sub_vjp, (a, b))


def _sub_vjp(node, g):
    a, b = node._parents
    return (
        sum_to(g, a.shape) if a.requires_grad else None,
        sum_to(neg(g), b.shape) if b.requires_grad else None,
    )


def mul(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data * b.data, _mul_vjp, (a, b))


def _mul_vjp(node, g):
    a, b = node._parents
    return (
        sum_to(mul(g, b), a.shape) if a.requires_grad else None,
        sum_to(mul(g, a), b.shape) if b.requires_grad else None,
    )


def div(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(a.data / b.data, _div_vjp, (a, b))


def _div_vjp(node, g):
    a, b = node._parents
    ga = sum_to(div(g, b), a.shape) if a.requires_grad else None
    gb = None
    if b.requires_grad:
        gb = sum_to(neg(div(mul(g, node), b)), b.shape)
    return (ga, gb)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(-a.data, _neg_vjp, (a,))


def _neg_vjp(node, g):
    return (neg(g),)


def matmul(a, b) -> Tensor:
    a, b = coerce_pair(a, b)
    return make_op_output(np.matmul(a.data, b.data), _matmul_vjp, (a, b))


def _matmul_vjp(node, g):
    a, b = node._parents
    ga = gb = None
    if a.requires_grad:
        ga = sum_to(matmul(g, swapaxes(b, -1, -2)), a.shape)
    if b.requires_grad:
        gb = sum_to(matmul(swapaxes(a, -1, -2), g), b.shape)
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


def _swapaxes_vjp(node, g):
    ax1, ax2 = node._ctx["axes"]
    return (swapaxes(g, ax1, ax2),)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return make_op_output(a.data.reshape(shape), _reshape_vjp, (a,))


def _reshape_vjp(node, g):
    (a,) = node._parents
    return (reshape(g, a.shape),)


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    # read-only view; downstream ops only read
    return make_op_output(np.broadcast_to(a.data, shape), _broadcast_to_vjp, (a,))


def _broadcast_to_vjp(node, g):
    (a,) = node._parents
    return (sum_to(g, a.shape),)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return make_op_output(
        a.data.sum(axis=axis, keepdims=keepdims),
        _tsum_vjp,
        (a,),
        {"axis": axis, "keepdims": keepdims},
    )


def _tsum_vjp(node, g):
    (a,) = node._parents
    axis, keepdims = node._ctx["axis"], node._ctx["keepdims"]
    if axis is not None and not keepdims:
        kept = list(a.shape)
        axes = (axis,) if isinstance(axis, int) else axis
        for ax in axes:
            kept[ax] = 1
        g = reshape(g, tuple(kept))
    return (broadcast_to(g, a.shape),)


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
    return make_op_output(
        a.data[tuple(idx)].copy(),
        _narrow_vjp,
        (a,),
        {"axis": axis, "start": start, "length": length},
    )


def _narrow_vjp(node, g):
    (a,) = node._parents
    ctx = node._ctx
    return (expand_slice(g, ctx["axis"], ctx["start"], a.shape[ctx["axis"]]),)


def expand_slice(a, axis: int, start: int, total: int) -> Tensor:
    """Place ``a`` into a zero tensor whose extent along ``axis`` is
    ``total``, at offset ``start`` (adjoint of narrow)."""
    a = as_tensor(a)
    shape = list(a.shape)
    shape[axis] = total
    out = np.zeros(shape, dtype=a.dtype)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + a.shape[axis])
    out[tuple(idx)] = a.data
    return make_op_output(
        out, _expand_slice_vjp, (a,), {"axis": axis, "start": start}
    )


def _expand_slice_vjp(node, g):
    (a,) = node._parents
    ctx = node._ctx
    return (narrow(g, ctx["axis"], ctx["start"], a.shape[ctx["axis"]]),)


def concat(tensors, axis: int) -> Tensor:
    parts = tuple(as_tensor(t) for t in tensors)
    return make_op_output(
        np.concatenate([p.data for p in parts], axis=axis),
        _concat_vjp,
        parts,
        {"axis": axis},
    )


def _concat_vjp(node, g):
    axis = node._ctx["axis"]
    grads = []
    offset = 0
    for p in node._parents:
        n = p.shape[axis]
        grads.append(narrow(g, axis, offset, n) if p.requires_grad else None)
        offset += n
    return tuple(grads)


def pad_time(a, left: int, right: int) -> Tensor:
    """Zero-pad the last axis."""
    a = as_tensor(a)
    if left == 0 and right == 0:
        return a
    return expand_slice(a, -1, left, a.shape[-1] + left + right)


# ---------------------------------------------------------------------------
# pointwise nonlinearities
# ---------------------------------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.exp(a.data), _exp_vjp, (a,))


def _exp_vjp(node, g):
    return (mul(g, node),)


def log(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.log(a.data), _log_vjp, (a,))


def _log_vjp(node, g):
    (a,) = node._parents
    return (div(g, a),)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.sqrt(a.data), _sqrt_vjp, (a,))


def _sqrt_vjp(node, g):
    return (div(mul(g, 0.5), node),)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(scipy.special.expit(a.data), _sigmoid_vjp, (a,))


def _sigmoid_vjp(node, g):
    one_minus = sub(1.0, node)
    return (mul(g, mul(node, one_minus)),)


def relu(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.maximum(a.data, 0), _relu_vjp, (a,), {"mask": a.data > 0})


def _relu_vjp(node, g):
    mask = Tensor(node._ctx["mask"].astype(node.dtype))
    return (mul(g, mask),)


def absval(a) -> Tensor:
    a = as_tensor(a)
    return make_op_output(np.abs(a.data), _absval_vjp, (a,), {"sign": np.sign(a.data)})


def _absval_vjp(node, g):
    return (mul(g, Tensor(node._ctx["sign"])),)


def clip(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    return make_op_output(
        np.clip(a.data, lo, hi), _clip_vjp, (a,), {"mask": mask}
    )


def _clip_vjp(node, g):
    mask = Tensor(node._ctx["mask"].astype(node.dtype))
    return (mul(g, mask),)


def softmax(a, axis: int) -> Tensor:
    """Numerically stable softmax.  The max shift is a detached constant,
    which is exact for gradients of any order."""
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


def _embedding_vjp(node, g):
    (table,) = node._parents
    return (scatter_rows(g, node._ctx["idx"], table.shape[0]),)


def scatter_rows(a, indices: np.ndarray, num_rows: int) -> Tensor:
    """Adjoint of embedding: sums rows of ``a`` into a (num_rows, E) zero
    table at the given indices."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    e = a.shape[-1]
    out = np.zeros((num_rows, e), dtype=a.dtype)
    np.add.at(out, idx.ravel(), a.data.reshape(-1, e))
    return make_op_output(
        out, _scatter_rows_vjp, (a,), {"idx": idx, "shape": a.shape}
    )


def _scatter_rows_vjp(node, g):
    return (reshape(embedding(g, node._ctx["idx"]), node._ctx["shape"]),)


# ---------------------------------------------------------------------------
# adjacent-pair sums (mean pooling support)
# ---------------------------------------------------------------------------


def pair_sum(a) -> Tensor:
    """Sums of adjacent sample pairs along an even-length last axis:
    (..., 2T) -> (..., T).  Two strided views added, where a reduction over
    a trailing axis of length 2 runs an order of magnitude slower."""
    a = as_tensor(a)
    return make_op_output(a.data[..., 0::2] + a.data[..., 1::2], _pair_sum_vjp, (a,))


def _pair_sum_vjp(node, g):
    return (repeat_pairs(g),)


def repeat_pairs(a) -> Tensor:
    """Each sample twice along the last axis (adjoint of pair_sum)."""
    a = as_tensor(a)
    return make_op_output(np.repeat(a.data, 2, axis=-1), _repeat_pairs_vjp, (a,))


def _repeat_pairs_vjp(node, g):
    return (pair_sum(g),)


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------


def kernel_adjoint(w) -> Tensor:
    """Swap in/out channels and reverse taps: (Co, Ci, K) -> (Ci, Co, K)."""
    w = as_tensor(w)
    return make_op_output(
        np.ascontiguousarray(np.swapaxes(w.data, 0, 1)[:, :, ::-1]),
        _kernel_adjoint_vjp,
        (w,),
    )


def _kernel_adjoint_vjp(node, g):
    return (kernel_adjoint(g),)


def conv_valid(x, w, dilation: int = 1) -> Tensor:
    """Valid dilated convolution: (B, Ci, Tp) x (Co, Ci, K) -> (B, Co, To)."""
    x, w = as_tensor(x), as_tensor(w)
    return make_op_output(
        kernels.conv_valid(x.data, w.data, dilation),
        _conv_valid_vjp,
        (x, w),
        {"dilation": dilation},
    )


def _conv_valid_vjp(node, g):
    x, w = node._parents
    d = node._ctx["dilation"]
    k = w.shape[2]
    gx = gw = None
    if x.requires_grad:
        gx = conv_valid(pad_time(g, (k - 1) * d, (k - 1) * d), kernel_adjoint(w), d)
    if w.requires_grad:
        gw = conv_weight_grad(x, g, d, k)
    return (gx, gw)


def conv_weight_grad(x, gy, dilation: int, ksize: int) -> Tensor:
    """Kernel-shaped correlation of activations with output gradients."""
    x, gy = as_tensor(x), as_tensor(gy)
    return make_op_output(
        kernels.conv_weight_grad(x.data, gy.data, dilation, ksize),
        _conv_weight_grad_vjp,
        (x, gy),
        {"dilation": dilation, "ksize": ksize},
    )


def _conv_weight_grad_vjp(node, g):
    x, gy = node._parents
    d, k = node._ctx["dilation"], node._ctx["ksize"]
    gx = ggy = None
    if x.requires_grad:
        gx = conv_valid(pad_time(gy, (k - 1) * d, (k - 1) * d), kernel_adjoint(g), d)
    if gy.requires_grad:
        ggy = conv_valid(x, g, d)
    return (gx, ggy)

