"""Network layers built from the differentiable primitives.

Layout convention: activations are (B, C, T) and nothing else; a 2-D
input is refused with a ``ValueError``, so a missing batch axis cannot be
mistaken for one.  Kernels are (C_out, C_in, K).  Same-length padding is
applied here, not in the primitives.  1x1 convolutions lower to a plain
matmul, which is faster for wide channel counts.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import Tensor, as_tensor


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


def conv1d_transposed(x, w, b=None, stride: int = 1) -> Tensor:
    """Time-upsampling by ``stride``; exact adjoint of a stride-s
    same-padded convolution.  Output length is stride * T."""
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    x = _batched(x)
    w = as_tensor(w)
    if x.shape[1] != w.shape[0]:
        raise ValueError(
            f"channel mismatch: input has {x.shape[1]}, adjoint kernel expects {w.shape[0]}"
        )
    k = w.shape[2]
    t_out = stride * x.shape[-1]
    if k == 1 and stride == 1:
        adj = ops.kernel_adjoint(w)
        y = ops.matmul(ops.reshape(adj, adj.shape[:2]), x)
    else:
        total = k - 1  # adjoint of a dilation-1 strided conv
        left = total // 2
        z = ops.interleave_zeros(x, stride)
        base = z.shape[-1] + total
        extra = max(0, left + t_out - base)
        z = ops.pad_time(z, total, total + extra)
        y = ops.narrow(ops.conv_valid(z, ops.kernel_adjoint(w), 1), -1, left, t_out)
    if b is not None:
        y = ops.add(y, ops.reshape(as_tensor(b), (1, -1, 1)))
    return y


def highway_block(x, w, b, dilation: int = 1, causal: bool = False) -> Tensor:
    """Gated residual convolution block.

    A single convolution produces 2C channels split into gate input H1 and
    candidate H2; output = sigmoid(H1) * H2 + (1 - sigmoid(H1)) * x.
    """
    x = _batched(x)
    c = x.shape[1]
    w = as_tensor(w)
    if w.shape[0] != 2 * c:
        raise ValueError(
            f"highway kernel must have 2*C={2 * c} output channels, got {w.shape[0]}"
        )
    h = conv1d(x, w, b, dilation=dilation, causal=causal)
    h1 = ops.narrow(h, 1, 0, c)
    h2 = ops.narrow(h, 1, c, c)
    gate = ops.sigmoid(h1)
    y = ops.add(ops.mul(gate, h2), ops.mul(ops.sub(1.0, gate), x))
    return y


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-time-step normalization over channels, then affine (gain, bias
    are (C,) or (C, 1))."""
    x = _batched(x)
    gain = ops.reshape(as_tensor(gain), (1, -1, 1))
    bias = ops.reshape(as_tensor(bias), (1, -1, 1))
    mu = ops.mean(x, axis=1, keepdims=True)
    xc = ops.sub(x, mu)
    var = ops.mean(ops.mul(xc, xc), axis=1, keepdims=True)
    y = ops.div(xc, ops.sqrt(ops.add(var, eps)))
    return ops.add(ops.mul(y, gain), bias)


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype=None) -> Tensor:
    """Uniform fan-in scaled init, U(-sqrt(3/fan_in), sqrt(3/fan_in))."""
    from .tensor import _default_dtype

    bound = np.sqrt(3.0 / max(fan_in, 1))
    data = rng.uniform(-bound, bound, size=shape).astype(dtype or _default_dtype())
    return Tensor(data, requires_grad=True)


def zeros_param(shape, dtype=None) -> Tensor:
    from .tensor import _default_dtype

    return Tensor(np.zeros(shape, dtype=dtype or _default_dtype()), requires_grad=True)


def ones_param(shape, dtype=None) -> Tensor:
    from .tensor import _default_dtype

    return Tensor(np.ones(shape, dtype=dtype or _default_dtype()), requires_grad=True)
