"""The convolution kernels must agree with nested-loop oracles in float32
and float64."""

import numpy as np
import pytest

from melforge import kernels
from oracles import max_rel_err, naive_conv1d, naive_conv1d_weight_grad

SHAPES = [(2, 3, 4, 10, 3, 1), (1, 5, 2, 7, 2, 3), (4, 4, 4, 12, 3, 2)]


def _conv_inputs(dtype, shape, rng):
    b, ci, co, t, k, d = shape
    tp = t + (k - 1) * d
    x = rng.standard_normal((b, ci, tp)).astype(dtype)
    w = rng.standard_normal((co, ci, k)).astype(dtype)
    gy = rng.standard_normal((b, co, t)).astype(dtype)
    return x, w, gy, d, k


def _assert_matches_oracles(y, gw, x, w, gy, d, k, tol):
    x64, w64, gy64 = (a.astype(np.float64) for a in (x, w, gy))
    # oracle per batch item (valid conv == zero-pad-free naive conv)
    for bi in range(x.shape[0]):
        assert max_rel_err(y[bi], naive_conv1d(x64[bi], w64, d, 0, 0)) <= tol
    assert max_rel_err(gw, naive_conv1d_weight_grad(x64, gy64, d, k)) <= tol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES)
def test_backends_match_each_other_and_oracle(dtype, shape, rng):
    """Both kernels against the float64 nested-loop oracles."""
    x, w, gy, d, k = _conv_inputs(dtype, shape, rng)
    y, gw = kernels.conv_valid(x, w, d), kernels.conv_weight_grad(x, gy, d, k)
    assert y.dtype == dtype and gw.dtype == dtype
    tol = 1e-5 if dtype == np.float32 else 1e-10
    _assert_matches_oracles(y, gw, x, w, gy, d, k, tol)


def test_weight_grad_is_adjoint_of_conv(rng):
    """<conv(x, w), gy> == <w, weight_grad(x, gy)> for random tensors."""
    b, ci, co, t, k, d = 3, 4, 5, 9, 3, 2
    tp = t + (k - 1) * d
    x = rng.standard_normal((b, ci, tp))
    w = rng.standard_normal((co, ci, k))
    gy = rng.standard_normal((b, co, t))
    lhs = float((kernels.conv_valid(x, w, d) * gy).sum())
    rhs = float((w * kernels.conv_weight_grad(x, gy, d, k)).sum())
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)

