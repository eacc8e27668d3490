"""Network contracts: shapes, causality, attention normalization, the
constrained decoder's path invariants, and critic variants."""

import numpy as np
import pytest

import melforge.autodiff as ad
from melforge import model
from melforge.autodiff import Tensor, ops
from melforge.model import DiscriminatorConfig
from oracles import central_difference_grad, max_rel_err, prefix_decode


def _t2m(cfg, rng):
    return model.init_t2m_params(cfg, rng)


def _spk(cfg, rng):
    v = rng.standard_normal(cfg.speaker_dim).astype(np.float32)
    return v / np.linalg.norm(v)


def test_tenc_shapes_and_sensitivity(tiny_model_config, rng):
    p = _t2m(tiny_model_config, rng)
    k, v = model.tenc_forward(np.array([1, 2, 3, 4, 5]), p, tiny_model_config)
    assert k.shape == (16, 5) and v.shape == (16, 5)
    k2, _ = model.tenc_forward(np.array([2, 1, 3, 4, 5]), p, tiny_model_config)
    assert not np.allclose(k.data, k2.data)
    with pytest.raises(ValueError):
        model.tenc_forward(np.zeros((0,), dtype=int), p, tiny_model_config)


def test_asenc_contracts(tiny_model_config, rng):
    cfg = tiny_model_config
    p = _t2m(cfg, rng)
    spk = _spk(cfg, rng)
    zero = np.zeros((cfg.n_mels, 1), dtype=np.float32)
    q = model.asenc_forward(zero, spk, p, cfg)
    assert q.shape == (16, 1)
    # speaker conditioning is live
    q2 = model.asenc_forward(zero, _spk(cfg, rng), p, cfg)
    assert not np.allclose(q.data, q2.data)
    # causality over mel frames
    mel = rng.random((cfg.n_mels, 9)).astype(np.float32)
    qa = model.asenc_forward(mel, spk, p, cfg).data
    mel2 = mel.copy()
    mel2[:, 6:] = rng.random((cfg.n_mels, 3))
    qb = model.asenc_forward(mel2, spk, p, cfg).data
    np.testing.assert_allclose(qa[:, :6], qb[:, :6], atol=1e-6)
    with pytest.raises(ValueError):
        model.asenc_forward(zero, spk[:5], p, cfg)


def test_attend_properties(rng):
    d, n, t = 8, 5, 7
    k = rng.standard_normal((d, n)).astype(np.float32)
    q = rng.standard_normal((d, t)).astype(np.float32)
    v = rng.standard_normal((d, n)).astype(np.float32)
    a, ctx = model.attend(Tensor(k[None]), Tensor(v[None]), Tensor(q[None]))
    a, ctx = a.data[0], ctx.data[0]
    np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-5)
    assert np.all(a >= 0) and np.all(a <= 1)
    assert max_rel_err(ctx, v @ a) <= 1e-6
    # matching K/Q columns concentrate attention on the matching index
    eye = np.eye(d, n).astype(np.float32) * 8
    a2, _ = model.attend(Tensor(eye[None]), Tensor(v[None]), Tensor(eye[None, :, :n]))
    assert np.argmax(a2.data[0, :, 2]) == 2


def test_adec_output_range_and_causality(tiny_model_config, rng):
    cfg = tiny_model_config
    p = _t2m(cfg, rng)
    x = rng.standard_normal((2 * cfg.attention_dim, 8)).astype(np.float32)
    y = model.adec_forward(x, p, cfg)
    assert y.shape == (cfg.n_mels, 8)
    assert np.all(y.data > 0) and np.all(y.data < 1)
    x2 = x.copy()
    x2[:, 5:] += 1.0
    y2 = model.adec_forward(x2, p, cfg)
    np.testing.assert_allclose(y.data[:, :5], y2.data[:, :5], atol=1e-6)


def test_teacher_forced_shift_independence(tiny_model_config, rng):
    cfg = tiny_model_config
    p = _t2m(cfg, rng)
    spk = _spk(cfg, rng)
    text = np.array([1, 4, 2, 7])
    tgt = rng.random((1, cfg.n_mels, 6)).astype(np.float32)
    y, a = model.t2m_teacher_forced(text[None], tgt, spk[None], p, cfg)
    assert y.shape == tgt.shape
    assert a.shape == (1, 4, 6)
    # prediction at frame t is independent of target frames >= t
    tgt2 = tgt.copy()
    tgt2[0, :, 3:] = rng.random((cfg.n_mels, 3))
    y2, _ = model.t2m_teacher_forced(text[None], tgt2, spk[None], p, cfg)
    np.testing.assert_allclose(y.data[..., :4], y2.data[..., :4], atol=1e-6)


def test_generate_path_constraints(tiny_model_config, rng):
    cfg = tiny_model_config
    for trial in range(25):
        p = _t2m(cfg, np.random.default_rng(trial))
        n = int(rng.integers(1, 9))
        text = rng.integers(1, cfg.vocab_size, n)
        mel, att, path = model.t2m_generate(
            text, _spk(cfg, rng), p, cfg, max_frames=12
        )
        steps = np.diff([0] + path)
        assert np.all((steps >= 0) & (steps <= 2))
        assert max(path) <= n - 1
        np.testing.assert_allclose(att.sum(axis=0), 1.0, atol=1e-6)
        assert mel.shape[0] == cfg.n_mels


def test_generate_windows_border_jump(tiny_model_config, rng):
    """A parameter set whose raw attention prefers a distant character still
    yields a first step <= 2 under the window constraint."""
    cfg = tiny_model_config
    p = _t2m(cfg, rng)
    text = np.array([1, 2, 3, 4, 5, 6])
    k, v = model.tenc_forward(text, p, cfg)
    # force raw scores to prefer position 5 at every step
    k.data[:] = 0.0
    k.data[:, 5] = 10.0
    mel, att, path = model.t2m_generate(text, _spk(cfg, rng), p, cfg, max_frames=4)
    assert path[0] <= 2


@pytest.mark.parametrize(
    "case,max_frames,stop_energy,dtype",
    [("frame_cap", 40, 0.0, np.float32), ("early_stop", 200, 1.0, np.float32),
     ("float64", 30, 0.0, np.float64), ("long", 130, 0.0, np.float64),
     ("long_float32", 130, 0.0, np.float32)],
)
def test_generate_matches_prefix_decode_oracle(case, max_frames, stop_energy, dtype, rng):
    """Step-mode decoding emits what re-running the encoder and decoder over
    the whole restacked prefix emits: the same path, and mel and attention
    up to float rounding.  The 130-frame cases reach past 2 * 27 frames, so
    every tap of the dilation-27 layers of both stacks reads a real frame."""
    cfg = model.ModelConfig()
    with ad.using_dtype(dtype):
        p = model.init_t2m_params(cfg, np.random.default_rng(5))
    text = rng.integers(1, cfg.vocab_size, 3 if case == "early_stop" else 20)
    spk = _spk(cfg, rng)
    kw = dict(max_frames=max_frames, stop_energy=stop_energy)
    mel, att, path = model.t2m_generate(text, spk, p, cfg, **kw)
    mel_o, att_o, path_o = prefix_decode(text, spk, p, cfg, **kw)
    assert path == path_o
    assert mel.dtype == mel_o.dtype == dtype and att.dtype == att_o.dtype
    atol = 1e-10 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(mel, mel_o, rtol=0.0, atol=atol)
    np.testing.assert_allclose(att, att_o, rtol=0.0, atol=atol)
    if case == "early_stop":
        assert len(path) < max_frames
    else:
        assert len(path) == max_frames


def test_generate_refuses_bad_inputs(tiny_model_config, rng):
    cfg = tiny_model_config
    p = _t2m(cfg, rng)
    text = np.array([1, 2, 3])
    spk = _spk(cfg, rng)
    with pytest.raises(ValueError, match="max_frames"):
        model.t2m_generate(text, spk, p, cfg, max_frames=0)
    with pytest.raises(ValueError, match="unbatched"):
        model.t2m_generate(text[None], spk, p, cfg)
    with pytest.raises(ValueError, match="speaker embedding"):
        model.t2m_generate(text, spk[:5], p, cfg)
    with pytest.raises(ValueError, match="empty"):
        model.t2m_generate(text[:0], spk, p, cfg)


def _two_d_calls(cfg, rng):
    """Each batched-only function, called with its first input unbatched."""
    d, n, t = cfg.attention_dim, 5, 6
    w = rng.standard_normal((4, 4, 3)).astype(np.float32)
    x = rng.standard_normal((4, t)).astype(np.float32)
    kv = rng.standard_normal((d, n)).astype(np.float32)
    q = rng.standard_normal((d, t)).astype(np.float32)
    dc = DiscriminatorConfig(in_channels=cfg.n_mels, channels=8)
    return {
        "conv1d": lambda: ad.conv1d(x, w),
        "conv1d_transposed": lambda: ad.conv1d_transposed(x, w),
        "highway_block": lambda: ad.highway_block(x, np.concatenate([w, w]), np.zeros(8)),
        "layer_norm": lambda: ad.layer_norm(x, np.ones(4), np.zeros(4)),
        "attend": lambda: model.attend(kv, kv, q),
        "t2m_teacher_forced": lambda: model.t2m_teacher_forced(
            np.array([1, 2, 3]), rng.random((cfg.n_mels, t)), _spk(cfg, rng),
            _t2m(cfg, rng), cfg,
        ),
        "discriminator_forward": lambda: model.discriminator_forward(
            rng.random((cfg.n_mels, t)), dc, model.init_discriminator_params(dc, rng)
        ),
    }


@pytest.mark.parametrize(
    "name",
    ["conv1d", "conv1d_transposed", "highway_block", "layer_norm", "attend",
     "t2m_teacher_forced", "discriminator_forward"],
)
def test_batched_only_functions_refuse_2d(name, tiny_model_config, rng):
    with pytest.raises(ValueError, match=r"\(B, "):
        _two_d_calls(tiny_model_config, rng)[name]()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_single_utterance_form_equals_batch_of_one(dtype, tiny_model_config, rng):
    """tenc/asenc/adec/ssrn on one unbatched utterance give [0] of the same
    call on a batch of one, bit for bit."""
    cfg = tiny_model_config
    with ad.using_dtype(dtype):
        p = {**_t2m(cfg, rng), **model.init_ssrn_params(cfg, rng)}
    text = np.array([3, 1, 4, 1, 5])
    mel = rng.random((cfg.n_mels, 7)).astype(dtype)
    spk = _spk(cfg, rng).astype(dtype)
    ctx_q = rng.standard_normal((2 * cfg.attention_dim, 7)).astype(dtype)
    pairs = [
        (model.tenc_forward(text, p, cfg), model.tenc_forward(text[None], p, cfg)),
        (model.asenc_forward(mel, spk, p, cfg), model.asenc_forward(mel[None], spk[None], p, cfg)),
        (model.adec_forward(ctx_q, p, cfg), model.adec_forward(ctx_q[None], p, cfg)),
        (model.ssrn_forward(mel, p, cfg), model.ssrn_forward(mel[None], p, cfg)),
    ]
    for one, batch in pairs:
        one = one if isinstance(one, tuple) else (one,)
        batch = batch if isinstance(batch, tuple) else (batch,)
        for a, b in zip(one, batch):
            assert b.shape == (1,) + a.shape and a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a.data, b.data[0])


def test_ssrn_shapes_and_range(tiny_model_config, rng):
    cfg = tiny_model_config
    p = model.init_ssrn_params(cfg, rng)
    dmel = rng.random((cfg.n_mels, 25)).astype(np.float32)
    lin = model.ssrn_forward(dmel, p, cfg)
    assert lin.shape == (cfg.n_bins, 100)
    assert np.all(lin.data > 0) and np.all(lin.data < 1)


def test_discriminator_variants_and_scores(tiny_model_config, rng):
    cfg = tiny_model_config
    base = DiscriminatorConfig(in_channels=cfg.n_mels, channels=8, variant="base")
    v1 = DiscriminatorConfig(in_channels=cfg.n_mels, channels=8, variant="v1")
    v2 = DiscriminatorConfig(in_channels=cfg.n_mels, channels=8, variant="v2")
    # v1 drops one pooling stage; v2 adds one conv stage
    def count(cfgv, kind):
        return sum(1 for l in cfgv.layers() if l.startswith(kind))

    assert count(v1, "pool") == count(base, "pool") - 1
    assert count(v2, "conv") == count(base, "conv") + 1
    assert count(v2, "pool") == count(base, "pool")
    for dc in (base, v1, v2):
        params = model.init_discriminator_params(dc, rng)
        s = model.discriminator_forward(
            rng.random((3, cfg.n_mels, 11)).astype(np.float32), dc, params
        )
        assert s.shape == (3,)
        assert np.all(np.isfinite(s.data))
    with pytest.raises(ValueError):
        DiscriminatorConfig(in_channels=4, channels=4, variant="v3")


def test_discriminator_input_gradient(tiny_model_config, rng):
    """The critic is differentiable with respect to its input."""
    cfg = tiny_model_config
    with ad.using_dtype(np.float64):
        dc = DiscriminatorConfig(in_channels=cfg.n_mels, channels=8)
        params = model.init_discriminator_params(dc, rng)
        x0 = rng.random((1, cfg.n_mels, 6))
        xt = Tensor(x0.copy(), requires_grad=True)
        (g,) = ad.grad(ad.tsum(model.discriminator_forward(xt, dc, params)), [xt])

        def f(x):
            with ad.no_grad():
                return float(
                    ad.tsum(model.discriminator_forward(Tensor(x), dc, params)).data
                )

        fd = central_difference_grad(f, x0.copy(), 1e-6)
        assert max_rel_err(g.data, fd) <= 1e-5


@pytest.mark.parametrize("variant", model.DISC_VARIANTS)
@pytest.mark.parametrize("t", [15, 16])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_discriminator_split_and_grad_sq(variant, t, dtype):
    """discriminator_forward is body(front(x)) bit for bit, and grad_sq,
    from the gradient at the front's output, equals each sample's squared
    norm of the taped input gradient.  Measured gaps over three variants,
    80 and 513 channels and odd and even T: <= 1e-15 relative in float64,
    <= 2.4e-7 in float32."""
    rng = np.random.default_rng(t)
    with ad.using_dtype(dtype):
        dc = DiscriminatorConfig(in_channels=80, channels=16, variant=variant)
        params = model.init_discriminator_params(dc, rng)
        x = rng.random((4, 80, t)).astype(dtype)
        scores = model.discriminator_forward(Tensor(x), dc, params)
        z = model.discriminator_front(Tensor(x), dc, params)
        assert z.shape == (4, 16, (t + 1) // 2)
        np.testing.assert_array_equal(model.discriminator_body(z, dc, params).data, scores.data)

        xt = Tensor(x, requires_grad=True)
        (gx,) = ad.grad(ad.tsum(model.discriminator_forward(xt, dc, params)), [xt])
        taped = np.sum(gx.data.reshape(4, -1).astype(np.float64) ** 2, axis=1)
        zt = Tensor(z.data, requires_grad=True)
        (delta,) = ad.grad(ad.tsum(model.discriminator_body(zt, dc, params)), [zt])
        sq = model.discriminator_grad_sq(delta, t, params)
        assert sq.shape == (4,) and sq.dtype == dtype
        rtol = 1e-12 if dtype == np.float64 else 2e-6
        np.testing.assert_allclose(sq.data, taped, rtol=rtol)
        with pytest.raises(ValueError, match="does not fit"):
            model.discriminator_grad_sq(delta, t + 2, params)


@pytest.mark.parametrize("variant", model.DISC_VARIANTS)
@pytest.mark.parametrize("t", [15, 16])
def test_discriminator_body_tangent_matches_central_difference(variant, t):
    """The body's tangent along dz equals the float64 central difference
    of the scores along dz, and its sum equals <dz, delta> with delta the
    taped gradient of the summed scores.  Carrying a tangent leaves the
    scores bit for bit as they are without one."""
    rng = np.random.default_rng(t)
    with ad.using_dtype(np.float64):
        dc = DiscriminatorConfig(in_channels=10, channels=16, variant=variant)
        params = model.init_discriminator_params(dc, rng)
        z = model.discriminator_front(Tensor(rng.random((4, 10, t))), dc, params).data
        dz = rng.standard_normal(z.shape)
        scores, tangent = model.discriminator_body(Tensor(z), dc, params, Tensor(dz))
        plain = model.discriminator_body(Tensor(z), dc, params)
        np.testing.assert_array_equal(scores.data, plain.data)
        eps = 1e-6
        with ad.no_grad():
            up, down = (
                model.discriminator_body(Tensor(z + s * eps * dz), dc, params).data
                for s in (1.0, -1.0)
            )
        assert max_rel_err(tangent.data, (up - down) / (2 * eps)) <= 1e-7
        zt = Tensor(z, requires_grad=True)
        (delta,) = ad.grad(ad.tsum(model.discriminator_body(zt, dc, params)), [zt])
        assert float(np.sum(tangent.data)) == pytest.approx(float(np.sum(delta.data * dz)), rel=1e-12)


def test_t2m_gradient_check_tiny(tiny_model_config, rng):
    """Finite-difference check of the full teacher-forced model on a few
    randomly chosen parameter coordinates."""
    cfg = tiny_model_config
    with ad.using_dtype(np.float64):
        params = model.init_t2m_params(cfg, np.random.default_rng(0))
        text = np.array([1, 3, 2])
        tgt = rng.random((cfg.n_mels, 4))
        spk = rng.standard_normal(cfg.speaker_dim)
        spk /= np.linalg.norm(spk)

        def loss_value():
            y, a = model.t2m_teacher_forced(text[None], tgt[None], spk[None], params, cfg)
            return ad.tsum(ops.mul(y, y))

        loss = loss_value()
        names = ["tenc.emb.w", "asenc.hw2.w", "adec.out.b", "tenc.out.w"]
        grads = ad.grad(loss, [params[n] for n in names])
        eps = 1e-6
        for name, g in zip(names, grads):
            p = params[name]
            flat_idx = rng.integers(0, p.data.size)
            idx = np.unravel_index(flat_idx, p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + eps
            with ad.no_grad():
                fp = float(loss_value().data)
            p.data[idx] = orig - eps
            with ad.no_grad():
                fm = float(loss_value().data)
            p.data[idx] = orig
            fd = (fp - fm) / (2 * eps)
            assert abs(g.data[idx] - fd) <= 1e-3 * max(abs(fd), 1e-3), name


def test_speaker_embedding_validation(rng):
    v = rng.standard_normal(16)
    with pytest.raises(ValueError):
        model.SpeakerEmbedding(v)  # not unit norm
    emb = model.unit_normalized(v, "spk")
    assert np.linalg.norm(emb.vector) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        model.unit_normalized(np.zeros(16))
