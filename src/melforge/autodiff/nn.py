"""Network layers built from the differentiable primitives.

Layout convention: activations are (B, C, T) and nothing else; a 2-D
input is refused with a ``ValueError``, so a missing batch axis cannot be
mistaken for one.  Kernels are (C_out, C_in, K).  Same-length padding is
applied here, not in the primitives.  1x1 convolutions lower to a plain
matmul, which is faster for wide channel counts.  The one upsampler,
`conv1d_transposed`, doubles the time axis: a 1x1 convolution to 2*C
channels and a time interleave, the adjoint of a stride-2, 2-tap
convolution; its kernel is (C_in, C_out, 2).

Given ``dx``, a tangent at ``x``, `layer_norm` and `highway_block` return
(y, dy), dy taped so a backward pass differentiates it (the critic's
gradient penalty does).  Every layer norm in the models is followed by a
ReLU, which ``model._conv`` applies, masking the tangent too.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor, _default_dtype, as_tensor

LN_EPS = 1e-5  # layer norm's variance floor; model's step decoder uses it too


def _batched(x) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"expected (B, C, T) input, got shape {x.shape}")
    return x


def conv1d(x, w, b=None, dilation: int = 1, causal: bool = False) -> Tensor:
    """Same-length dilated 1-D convolution.

    Causal mode pads only on the left, so frame t never sees inputs > t;
    non-causal mode pads symmetrically.
    """
    x = _batched(x)
    w = as_tensor(w)
    if w.ndim != 3:
        raise ValueError(f"kernel must be (C_out, C_in, K), got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, kernel expects {w.shape[1]}"
        )
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    k = w.shape[2]
    if k == 1:
        y = ops.matmul(ops.reshape(w, w.shape[:2]), x)
    else:
        total = (k - 1) * dilation
        left = total if causal else total // 2
        y = ops.conv_valid(ops.pad_time(x, left, total - left), w, dilation)
    if b is not None:
        y = ops.add(y, ops.reshape(as_tensor(b), (1, -1, 1)))
    return y


def conv1d_transposed(x, w, b=None) -> Tensor:
    """2x time-upsampling with a (C_in, C_out, 2) kernel: output sample
    2t+j is ``w[:, :, j].T @ x[:, :, t]``, the adjoint of a stride-2, 2-tap
    convolution.  One matmul to 2*C_out channels over all B*T frames, then
    a time interleave."""
    x = _batched(x)
    w = as_tensor(w)
    bsz, c_in, t = x.shape
    if w.ndim != 3 or w.shape[0] != c_in or w.shape[2] != 2:
        raise ValueError(f"kernel must be ({c_in}, C_out, 2), got {w.shape}")
    c_out = w.shape[1]
    # every frame of the batch is a column of one (C_in, B*T) matrix, and
    # row j*C_out + o of the (2*C_out, C_in) kernel matrix is w[:, o, j]
    cols = ops.reshape(ops.swapaxes(x, 0, 1), (c_in, bsz * t))
    y = ops.matmul(ops.reshape(ops.swapaxes(w, 0, 2), (2 * c_out, c_in)), cols)
    # (2, C_out, B, T) -> (B, C_out, T, 2) puts tap j of frame t at 2t+j
    y = ops.swapaxes(ops.swapaxes(ops.reshape(y, (2, c_out, bsz, t)), 0, 2), 2, 3)
    y = ops.reshape(y, (bsz, c_out, 2 * t))
    if b is not None:
        y = ops.add(y, ops.reshape(as_tensor(b), (1, -1, 1)))
    return y


def highway_block(x, w, b, dilation: int = 1, causal: bool = False, dx=None):
    """Gated residual convolution block.

    A single convolution produces 2C channels split into gate input H1 and
    candidate H2; output = sigmoid(H1) * H2 + (1 - sigmoid(H1)) * x.  With
    g = sigmoid(H1) and dH = conv(dx) without the bias, the tangent is
    dy = g (1 - g) dH1 (H2 - x) + g dH2 + (1 - g) dx.
    """
    x = _batched(x)
    c = x.shape[1]
    w = as_tensor(w)
    if w.shape[0] != 2 * c:
        raise ValueError(
            f"highway kernel must have 2*C={2 * c} output channels, got {w.shape[0]}"
        )
    h = conv1d(x, w, b, dilation=dilation, causal=causal)
    gate, h2 = ops.sigmoid(ops.narrow(h, 1, 0, c)), ops.narrow(h, 1, c, c)
    rest = ops.sub(1.0, gate)
    y = ops.add(ops.mul(gate, h2), ops.mul(rest, x))
    if dx is None:
        return y
    dh = conv1d(dx, w, dilation=dilation, causal=causal)
    dgate = ops.mul(ops.mul(gate, rest), ops.narrow(dh, 1, 0, c))
    dy = ops.add(ops.mul(dgate, ops.sub(h2, x)), ops.mul(gate, ops.narrow(dh, 1, c, c)))
    return y, ops.add(dy, ops.mul(rest, dx))


def layer_norm(x, gain, bias, dx=None):
    """Per-time-step normalization over channels, with variance floor
    ``LN_EPS``, then affine (gain, bias are (C,) or (C, 1)).  With xc, dxc
    the channel-centred x, dx and n = xc / sigma, the tangent is
    dy = gain * (dxc - n * mean(n * dxc)) / sigma."""
    x = _batched(x)
    gain = ops.reshape(as_tensor(gain), (1, -1, 1))
    bias = ops.reshape(as_tensor(bias), (1, -1, 1))
    xc = ops.sub(x, ops.mean(x, axis=1, keepdims=True))
    sigma = ops.sqrt(ops.add(ops.mean(ops.mul(xc, xc), axis=1, keepdims=True), LN_EPS))
    n = ops.div(xc, sigma)
    y = ops.add(ops.mul(n, gain), bias)
    if dx is None:
        return y
    dxc = ops.sub(dx, ops.mean(dx, axis=1, keepdims=True))
    dn = ops.sub(dxc, ops.mul(n, ops.mean(ops.mul(n, dxc), axis=1, keepdims=True)))
    return y, ops.mul(gain, ops.div(dn, sigma))


# ---------------------------------------------------------------------------
# parameter initialization, in the dtype `using_dtype` sets
# ---------------------------------------------------------------------------


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Uniform fan-in scaled init, U(-sqrt(3/fan_in), sqrt(3/fan_in))."""
    bound = np.sqrt(3.0 / max(fan_in, 1))
    data = rng.uniform(-bound, bound, size=shape).astype(_default_dtype())
    return Tensor(data, requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_default_dtype()), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=_default_dtype()), requires_grad=True)
