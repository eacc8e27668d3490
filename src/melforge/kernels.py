"""Hot numeric kernels for dilated 1-D convolution.

Both kernels lower the convolution to an input panel gather ("im2col")
followed by one BLAS GEMM.  Very wide channel counts are lowered to plain
matmuls upstream and never reach these kernels.  The test suite checks both
against nested-loop oracles.

  panel[ci*K + k, b*To + t] = x[b, ci, t + k*dilation]
  conv_valid:       y  = w.reshape(Co, Ci*K) @ panel
  conv_weight_grad: gw = gy.reshape-ish (Co, B*To) @ panel.T
"""

from __future__ import annotations

import numpy as np


def _panel(x: np.ndarray, dilation: int, ksize: int, t_out: int) -> np.ndarray:
    B, Ci, Tp = x.shape
    sb, sc, st = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(B, Ci, ksize, t_out),
        strides=(sb, sc, st * dilation, st),
        writeable=False,
    )
    # (Ci, K, B, To) -> contiguous (Ci*K, B*To)
    return np.ascontiguousarray(view.transpose(1, 2, 0, 3)).reshape(
        Ci * ksize, B * t_out
    )


def conv_valid(x: np.ndarray, w: np.ndarray, dilation: int) -> np.ndarray:
    """Valid dilated convolution.

    x: (B, C_in, Tp), w: (C_out, C_in, K) -> (B, C_out, Tp - (K-1)*dilation).
    y[b, co, t] = sum_{ci,k} w[co, ci, k] * x[b, ci, t + k*dilation]
    """
    B, Ci, Tp = x.shape
    Co, _, K = w.shape
    To = Tp - (K - 1) * dilation
    panel = _panel(x, dilation, K, To)
    y = w.reshape(Co, Ci * K) @ panel  # (Co, B*To)
    return np.ascontiguousarray(y.reshape(Co, B, To).transpose(1, 0, 2))


def conv_weight_grad(
    x: np.ndarray, gy: np.ndarray, dilation: int, ksize: int
) -> np.ndarray:
    """Kernel-shaped correlation: adjoint of conv_valid with respect to w.

    x: (B, C_in, Tp), gy: (B, C_out, To) -> (C_out, C_in, ksize).
    gw[co, ci, k] = sum_{b,t} gy[b, co, t] * x[b, ci, t + k*dilation]
    """
    B, Ci, Tp = x.shape
    _, Co, To = gy.shape
    panel = _panel(x, dilation, ksize, To)
    g2 = np.ascontiguousarray(gy.transpose(1, 0, 2)).reshape(Co, B * To)
    return (g2 @ panel.T).reshape(Co, Ci, ksize)
