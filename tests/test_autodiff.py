"""Gradient correctness of the tensor library: finite-difference checks for
every layer and primitive, adjointness of the convolution pair, the
pruned first-order sweep, and optimizer behavior."""

import inspect

import numpy as np
import pytest

import melforge.autodiff as ad
from melforge.autodiff import AdamState, Tensor, adam_step, nn, ops
from melforge.errors import TrainingAborted
from oracles import central_difference_grad, max_rel_err, naive_conv1d, naive_strided_conv1d


def _check_grads(build_loss, params, eps, tol):
    """Compare analytic gradients of a scalar loss against central
    differences for every entry of every parameter array."""
    tensors = [Tensor(p.copy(), requires_grad=True) for p in params]
    loss = build_loss(tensors)
    grads = ad.grad(loss, tensors)
    for j, (p, g) in enumerate(zip(params, grads)):
        def f(x, j=j):
            fresh = [Tensor(q.copy()) for q in params]
            fresh[j] = Tensor(x)
            with ad.no_grad():
                return float(build_loss(fresh).data)

        fd = central_difference_grad(f, p.copy(), eps)
        assert max_rel_err(g.data, fd) <= tol, f"gradient mismatch for shape {p.shape}"


@pytest.mark.parametrize("dtype,eps,tol", [(np.float64, 1e-6, 1e-5), (np.float32, 1e-2, 1e-3)])
def test_elementwise_op_gradients(dtype, eps, tol, rng):
    with ad.using_dtype(dtype):
        x = rng.uniform(0.2, 1.5, size=(3, 4)).astype(dtype)
        y = rng.uniform(0.2, 1.5, size=(3, 4)).astype(dtype)

        def loss(ts):
            a, b = ts
            z = ops.mul(ops.add(a, b), ops.sigmoid(ops.sub(a, ops.mul(b, 0.5))))
            z = ops.add(z, ops.exp(ops.mul(a, -0.3)))
            z = ops.add(z, ops.log(ops.add(ops.mul(b, b), 0.5)))
            z = ops.add(z, ops.sqrt(ops.add(ops.mul(a, a), 0.1)))
            z = ops.add(z, ops.sigmoid(b))
            return ad.tsum(ops.mul(z, z))

        _check_grads(loss, [x, y], eps, tol)


@pytest.mark.parametrize("dtype,eps,tol", [(np.float64, 1e-6, 1e-5), (np.float32, 1e-2, 1e-3)])
def test_matmul_softmax_gradients(dtype, eps, tol, rng):
    with ad.using_dtype(dtype):
        a = rng.standard_normal((2, 3, 4)).astype(dtype)
        b = rng.standard_normal((2, 4, 5)).astype(dtype)

        def loss(ts):
            z = ops.matmul(ts[0], ts[1])
            s = ops.softmax(z, axis=1)
            return ad.tsum(ops.mul(s, z))

        _check_grads(loss, [a, b], eps, tol)


def test_simple_closed_forms():
    x = Tensor(np.array(3.0), requires_grad=True)
    (gx,) = ad.grad(ops.mul(x, x), [x])
    assert gx.data == pytest.approx(6.0)

    c = Tensor(np.array(5.0), requires_grad=True)
    (gc,) = ad.grad(ops.mul(c, 0.0), [c])
    assert gc.data == pytest.approx(0.0)


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array(2.0), requires_grad=True)
    loss = ops.add(ops.mul(x, x), ops.mul(x, 3.0))  # x^2 + 3x
    (gx,) = ad.grad(loss, [x])
    assert gx.data == pytest.approx(7.0)


@pytest.mark.parametrize("dilation,causal", [(1, False), (2, True), (3, False), (2, False)])
def test_conv1d_matches_naive(dilation, causal, rng):
    x = rng.standard_normal((3, 12)).astype(np.float32)
    w = rng.standard_normal((5, 3, 3)).astype(np.float32)
    y = nn.conv1d(Tensor(x[None]), Tensor(w), dilation=dilation, causal=causal)
    total = (w.shape[2] - 1) * dilation
    left = total if causal else total // 2
    ref = naive_conv1d(x, w, dilation, left, total - left)
    assert max_rel_err(y.data[0], ref) <= 1e-5
    assert y.shape == (1, 5, 12)


def test_conv1d_identity_kernel(rng):
    x = rng.standard_normal((4, 9)).astype(np.float32)
    w = np.eye(4, dtype=np.float32)[:, :, None]
    y = nn.conv1d(Tensor(x[None]), Tensor(w))
    np.testing.assert_allclose(y.data[0], x, rtol=1e-6)


def test_conv1d_causality(rng):
    x = rng.standard_normal((3, 16)).astype(np.float32)
    w = rng.standard_normal((3, 3, 3)).astype(np.float32)
    y = nn.conv1d(Tensor(x[None]), Tensor(w), dilation=2, causal=True).data[0]
    x2 = x.copy()
    x2[:, 9:] += rng.standard_normal((3, 7)).astype(np.float32)
    y2 = nn.conv1d(Tensor(x2[None]), Tensor(w), dilation=2, causal=True).data[0]
    np.testing.assert_array_equal(y[:, :9], y2[:, :9])


@pytest.mark.parametrize("dtype,eps,tol", [(np.float64, 1e-6, 1e-5), (np.float32, 1e-2, 1e-3)])
def test_conv1d_gradients(dtype, eps, tol, rng):
    with ad.using_dtype(dtype):
        x = rng.standard_normal((1, 3, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, 3)).astype(dtype)

        def loss(ts):
            y = nn.conv1d(ts[0], ts[1], dilation=2, causal=True)
            return ad.tsum(ops.mul(y, ops.sigmoid(y)))

        _check_grads(loss, [x, w], eps, tol)


def test_conv_transposed_shape_and_zero(rng):
    x = rng.standard_normal((2, 3)).astype(np.float32)
    w = rng.standard_normal((2, 4, 2)).astype(np.float32)
    y = nn.conv1d_transposed(Tensor(x[None]), Tensor(w))
    assert y.shape == (1, 4, 6)
    z = nn.conv1d_transposed(Tensor(np.zeros((1, 2, 5), dtype=np.float32)), Tensor(w))
    np.testing.assert_array_equal(z.data, 0)


@pytest.mark.parametrize(
    "w_shape", [(2, 4, 3), (3, 4, 2)], ids=["three_taps", "channel_mismatch"]
)
def test_conv_transposed_refuses_other_kernels(w_shape, rng):
    x = Tensor(rng.standard_normal((1, 2, 5)))
    with pytest.raises(ValueError, match=r"kernel must be \(2, C_out, 2\)"):
        nn.conv1d_transposed(x, Tensor(rng.standard_normal(w_shape)))


@pytest.mark.parametrize("stride,k", [(2, 2)])
def test_conv_transposed_adjointness(stride, k, rng):
    """<strided_conv(x), y> == <x, conv_transposed(y)> for the matching
    same-padded stride-2, 2-tap convolution."""
    ci, co, t = 3, 4, 8
    w = rng.standard_normal((co, ci, k))
    x = rng.standard_normal((ci, t * stride))
    y = rng.standard_normal((co, t))
    fwd = naive_strided_conv1d(x, w, stride)
    lhs = float((fwd * y).sum())
    back = nn.conv1d_transposed(Tensor(y[None].astype(np.float64)), Tensor(w.astype(np.float64)))
    rhs = float((x * back.data[0]).sum())
    assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("dtype,eps,tol", [(np.float64, 1e-6, 1e-5), (np.float32, 1e-2, 1e-3)])
def test_conv_transposed_gradients(dtype, eps, tol, rng):
    with ad.using_dtype(dtype):
        x = rng.standard_normal((2, 3, 5)).astype(dtype)
        w = rng.standard_normal((3, 2, 2)).astype(dtype)
        b = rng.standard_normal(2).astype(dtype)

        def loss(ts):
            y = nn.conv1d_transposed(ts[0], ts[1], ts[2])
            return ad.tsum(ops.mul(y, y))

        _check_grads(loss, [x, w, b], eps, tol)


def test_highway_gate_limits(rng):
    c, t = 4, 6
    x = rng.standard_normal((c, t)).astype(np.float32)
    w = rng.standard_normal((2 * c, c, 3)).astype(np.float32) * 0.1
    b = np.zeros(2 * c, dtype=np.float32)
    b[:c] = -1e9  # gate sigmoid -> 0: pass-through
    y = nn.highway_block(Tensor(x[None]), Tensor(w), Tensor(b))
    np.testing.assert_allclose(y.data[0], x, atol=1e-6)
    b[:c] = 1e9  # gate sigmoid -> 1: output = candidate conv
    y = nn.highway_block(Tensor(x[None]), Tensor(w), Tensor(b))
    h = nn.conv1d(Tensor(x[None]), Tensor(w), Tensor(b))
    np.testing.assert_allclose(y.data[0], h.data[0, c:], atol=1e-5)


@pytest.mark.parametrize("dtype,eps,tol", [(np.float64, 1e-6, 1e-5), (np.float32, 1e-2, 1e-3)])
def test_highway_gradients(dtype, eps, tol, rng):
    with ad.using_dtype(dtype):
        x = rng.standard_normal((1, 3, 7)).astype(dtype)
        w = rng.standard_normal((6, 3, 3)).astype(dtype)
        b = rng.standard_normal(6).astype(dtype)

        def loss(ts):
            y = nn.highway_block(ts[0], ts[1], ts[2], dilation=2, causal=True)
            return ad.tsum(ops.mul(y, y))

        _check_grads(loss, [x, w, b], eps, tol)


def test_layer_norm_definition(rng):
    x = rng.standard_normal((5, 7)).astype(np.float32)
    g = np.ones(5, dtype=np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    y = nn.layer_norm(Tensor(x[None]), Tensor(g), Tensor(b)).data[0]
    np.testing.assert_allclose(y.mean(axis=0), b.mean(), atol=1e-5)
    const = np.full((1, 5, 3), 2.5, dtype=np.float32)
    y0 = nn.layer_norm(Tensor(const), Tensor(g), Tensor(np.zeros(5, dtype=np.float32))).data
    np.testing.assert_allclose(y0, 0.0, atol=1e-3)


@pytest.mark.parametrize("dtype,eps,tol", [(np.float64, 1e-6, 1e-5), (np.float32, 1e-2, 1e-3)])
def test_layer_norm_gradients(dtype, eps, tol, rng):
    with ad.using_dtype(dtype):
        x = rng.standard_normal((1, 4, 5)).astype(dtype)
        g = rng.uniform(0.5, 1.5, 4).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)

        def loss(ts):
            y = nn.layer_norm(ts[0], ts[1], ts[2])
            return ad.tsum(ops.mul(y, ops.sigmoid(y)))

        _check_grads(loss, [x, g, b], eps, tol)


def _check_tangent(layer, x, dx):
    """``layer(x, dx)`` returns ``layer(x)`` bit for bit and a tangent equal
    to the float64 central difference of ``layer`` along ``dx``."""
    plain = layer(Tensor(x))
    y, dy = layer(Tensor(x), Tensor(dx))
    np.testing.assert_array_equal(y.data, plain.data)
    eps = 1e-6
    up, down = (layer(Tensor(x + s * eps * dx)).data for s in (1.0, -1.0))
    assert max_rel_err(dy.data, (up - down) / (2 * eps)) <= 1e-7


def test_layer_norm_tangent_matches_central_difference(rng):
    g = rng.uniform(0.5, 1.5, 6)
    b = rng.standard_normal(6)
    x, dx = rng.standard_normal((2, 2, 6, 9))

    def layer(t, dt=None):
        return nn.layer_norm(t, Tensor(g), Tensor(b), dx=dt)

    _check_tangent(layer, x, dx)


@pytest.mark.parametrize("dilation,causal", [(2, True), (3, False)])
def test_highway_tangent_matches_central_difference(dilation, causal, rng):
    w = rng.standard_normal((8, 4, 3))
    b = rng.standard_normal(8)
    x, dx = rng.standard_normal((2, 2, 4, 11))

    def layer(t, dt=None):
        return nn.highway_block(t, Tensor(w), Tensor(b), dilation, causal, dx=dt)

    _check_tangent(layer, x, dx)


def test_embedding_gradients(rng):
    with ad.using_dtype(np.float64):
        table = rng.standard_normal((7, 4))
        idx = np.array([1, 3, 3, 0, 6])

        def loss(ts):
            e = ops.embedding(ts[0], idx)
            return ad.tsum(ops.mul(e, e))

        _check_grads(loss, [table], 1e-6, 1e-6)


def test_pair_sum_matches_reduction_and_repeat_pairs_is_adjoint(rng):
    """pair_sum equals the pairwise reduction bit for bit (the critic's
    pooling relies on it), and its VJP repeats each sample pair-wise, the
    adjoint: <pair_sum(x), y> == <x, repeat_pairs(y)>."""
    x = rng.standard_normal((2, 3, 8)).astype(np.float32)
    y = rng.standard_normal((2, 3, 4))
    np.testing.assert_array_equal(
        ops.pair_sum(Tensor(x)).data, x.reshape(2, 3, 4, 2).sum(axis=3)
    )
    x64 = Tensor(x.astype(np.float64), requires_grad=True)
    (back,) = ad.grad(ad.tsum(ops.mul(ops.pair_sum(x64), y)), [x64])
    np.testing.assert_array_equal(back.data, np.repeat(y, 2, axis=-1))
    lhs = np.sum(ops.pair_sum(x64).data * y)
    rhs = np.sum(x64.data * back.data)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    with ad.using_dtype(np.float64):
        _check_grads(lambda ts: ad.tsum(ops.sigmoid(ops.pair_sum(ts[0]))), [x64.data], 1e-6, 1e-5)


def test_sweep_skips_gradients_nothing_asked_for(rng, monkeypatch):
    """A parameter on the tape but not in ``wrt`` gets no VJP work: the
    conv's kernel gradient is never formed when only the input's is asked
    for, and the input gradient is unchanged."""
    x = Tensor(rng.standard_normal((2, 3, 9)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
    loss = ad.tsum(ops.sigmoid(ops.conv_valid(x, w, 2)))
    (want,) = ad.grad(loss, [x, w])[:1]

    def refuse(*args):
        raise AssertionError("kernel gradient formed")

    monkeypatch.setattr(ops.kernels, "conv_weight_grad", refuse)
    (got,) = ad.grad(loss, [x])
    np.testing.assert_array_equal(got.data, want.data)


# Values at least 0.05 away from the kinks of relu/absval (0) and of
# clip(-0.5, 0.5), with entries on both sides of each.
_KINKED = np.array([[-0.9, -0.3, 0.2, 0.7], [0.45, -0.45, 1.2, -0.15]])
_IDX = np.array([[1, 3], [3, 0], [6, 6]])

# name -> (forward over the input tensors, one shape or array per input).
# Every input is differentiated; a shape draws standard normals, an array is
# used as given.
_PRIMITIVE_ROWS = {
    "add": (lambda a, b: ops.add(a, b), [(3, 4), (4,)]),
    "sub": (lambda a, b: ops.sub(a, b), [(3, 4), (3, 1)]),
    "mul": (lambda a, b: ops.mul(a, b), [(3, 4), (1, 4)]),
    "div": (lambda a, b: ops.div(a, ops.add(ops.mul(b, b), 0.5)), [(3, 4), (3, 4)]),
    "neg": (lambda a: ops.neg(a), [(3, 4)]),
    "matmul": (lambda a, b: ops.matmul(a, b), [(2, 3, 4), (4, 5)]),
    "swapaxes": (lambda a: ops.swapaxes(a, 0, 2), [(2, 3, 4)]),
    "reshape": (lambda a: ops.reshape(a, (4, 6)), [(2, 3, 4)]),
    "tsum": (lambda a: ops.tsum(a, axis=(0, 2)), [(2, 3, 4)]),
    "mean": (lambda a: ops.mean(a, axis=1, keepdims=True), [(2, 3, 4)]),
    "narrow": (lambda a: ops.narrow(a, 1, 1, 3), [(2, 5, 3)]),
    "concat": (lambda a, b: ops.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "pad_time": (lambda a: ops.pad_time(a, 2, 1), [(2, 3, 4)]),
    "exp": (lambda a: ops.exp(a), [(3, 4)]),
    "log": (lambda a: ops.log(ops.add(ops.mul(a, a), 0.5)), [(3, 4)]),
    "sqrt": (lambda a: ops.sqrt(ops.add(ops.mul(a, a), 0.5)), [(3, 4)]),
    "sigmoid": (lambda a: ops.sigmoid(a), [(3, 4)]),
    "relu": (lambda a: ops.relu(a), [_KINKED]),
    "absval": (lambda a: ops.absval(a), [_KINKED]),
    "clip": (lambda a: ops.clip(a, -0.5, 0.5), [_KINKED]),
    "softmax": (lambda a: ops.softmax(a, axis=1), [(2, 3, 4)]),
    "embedding": (lambda t: ops.embedding(t, _IDX), [(7, 4)]),
    "pair_sum": (lambda a: ops.pair_sum(a), [(2, 3, 6)]),
    "conv_valid": (lambda x, w: ops.conv_valid(x, w, 2), [(2, 3, 9), (4, 3, 3)]),
}


def _public_functions(module):
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def test_primitive_table_covers_every_recording_function():
    recording = {
        name for name, fn in _public_functions(ops).items()
        if "make_op_output" in fn.__code__.co_names
    }
    assert recording <= set(_PRIMITIVE_ROWS), sorted(recording - set(_PRIMITIVE_ROWS))
    assert set(_PRIMITIVE_ROWS) <= set(_public_functions(ops))


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_ROWS))
def test_primitive_gradient(name):
    """Each public primitive's recorded VJP against float64 central
    differences of a random projection of its output.  A primitive that
    records another primitive's VJP, or none, fails here."""
    fn, inputs = _PRIMITIVE_ROWS[name]
    rng = np.random.default_rng(sum(name.encode()))
    arrays = [
        np.array(x, dtype=np.float64) if isinstance(x, np.ndarray) else rng.standard_normal(x)
        for x in inputs
    ]
    with ad.using_dtype(np.float64):
        with ad.no_grad():
            proj = rng.standard_normal(fn(*[Tensor(a) for a in arrays]).shape)
        _check_grads(lambda ts: ad.tsum(ops.mul(fn(*ts), proj)), arrays, 1e-6, 1e-7)


def test_exports_resolve_and_cover_every_primitive():
    assert len(set(ad.__all__)) == len(ad.__all__)
    unresolved = [name for name in ad.__all__ if not hasattr(ad, name)]
    assert not unresolved
    unexported = set(_public_functions(ops)) - set(ad.__all__)
    assert not unexported, sorted(unexported)


def test_backward_determinism(rng):
    x = rng.standard_normal((3, 4)).astype(np.float32)

    def run():
        t = Tensor(x.copy(), requires_grad=True)
        y = ops.sigmoid(ops.matmul(t, ops.swapaxes(t, 0, 1)))
        (gt,) = ad.grad(ad.tsum(y), [t])
        return gt.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_non_scalar_loss_rejected(rng):
    t = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.grad(ops.mul(t, t), [t])


def test_loss_not_on_tape_rejected(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    c = Tensor(rng.standard_normal(3))
    with ad.no_grad():
        untraced = ad.tsum(ops.mul(x, x))
    leaf = Tensor(np.array(2.0), requires_grad=True)
    for loss in (ad.tsum(c), untraced, leaf):
        with pytest.raises(ValueError, match="not recorded on the tape"):
            ad.grad(loss, [x, leaf])


def test_adam_first_step_and_zero_grad():
    p = {"w": Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)}
    st = AdamState()
    adam_step(p, {"w": np.ones(3, dtype=np.float32)}, st)
    np.testing.assert_allclose(p["w"].data, -2e-4 * np.ones(3), rtol=1e-4)
    # zero gradient with zero moments leaves parameters untouched
    q = {"w": Tensor(np.full(3, 0.7, dtype=np.float32), requires_grad=True)}
    adam_step(q, {"w": np.zeros(3, dtype=np.float32)}, AdamState())
    np.testing.assert_array_equal(q["w"].data, np.full(3, 0.7, dtype=np.float32))


def test_adam_determinism(rng):
    def run():
        p = {"w": Tensor(np.ones(4, dtype=np.float32), requires_grad=True)}
        st = AdamState()
        g = np.linspace(-1, 1, 4, dtype=np.float32)
        for _ in range(25):
            adam_step(p, {"w": g}, st)
        return p["w"].data.copy()

    assert np.array_equal(run(), run())


def test_adam_aborts_on_nan():
    p = {"w": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)}
    with pytest.raises(TrainingAborted, match="w"):
        adam_step(p, {"w": np.array([np.nan, 0.0], dtype=np.float32)}, AdamState())
