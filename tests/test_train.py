"""Training-loop behavior: determinism, parameter isolation between critic
and generator phases, checkpoint round trips and the 1-D WGAN-GP sanity
setup with a linear critic."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

import melforge.autodiff as ad
from melforge import losses, model, train
from melforge.autodiff import AdamState, Tensor, ops
from melforge.config import RunConfig, TrainConfig
from melforge.errors import CompatibilityError, FormatError
from melforge.model import ModelConfig
from melforge.textproc import CharVocab
from oracles import input_gradient_critic_loss, max_rel_err


def _tiny_run_cfg(fcfg, steps=6, seed=3, **kw):
    return RunConfig(
        dsp=fcfg,
        model=ModelConfig(
            width_scale=0.03125, attention_dim=16, embed_dim=16, ssrn_width=16
        ),
        train=TrainConfig(
            batch_size=4,
            max_iters=steps,
            checkpoint_every=max(steps, 1),
            log_every=1,
            seed=seed,
            disc_channels=8,
            **kw,
        ),
    )


@pytest.fixture(scope="module")
def toy_samples(prepared_toy):
    manifest, fcfg, store = prepared_toy
    return train.load_training_samples(manifest, store), fcfg


def test_training_is_deterministic(toy_samples, tmp_path):
    samples, fcfg = toy_samples
    logs = []
    for run in range(2):
        path = tmp_path / f"log{run}.jsonl"
        list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=5), log_path=path))
        entries = [json.loads(l) for l in path.read_text().splitlines()]
        for e in entries:
            for key in ("wall_ms", "critic_ms", "generator_ms"):  # the timings
                e.pop(key)
        logs.append(entries)
    assert logs[0] == logs[1]


def test_run_log_records_5_to_1_ratio(toy_samples, tmp_path):
    samples, fcfg = toy_samples
    path = tmp_path / "log.jsonl"
    list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=3), log_path=path))
    entries = [json.loads(l) for l in path.read_text().splitlines()]
    assert entries, "run log is empty"
    for e in entries:
        assert e["critic_updates"] == 5
        assert e["generator_updates"] == 1
        for key in ("wall_ms", "critic_ms", "generator_ms", "critic_gp"):
            assert np.isfinite(e[key]), key
        assert e["critic_ms"] + e["generator_ms"] <= e["wall_ms"] + 0.002  # rounding
        json.dumps(e)  # every line is valid JSON


def test_loss_decreases_over_short_run(toy_samples, tmp_path):
    samples, fcfg = toy_samples
    path = tmp_path / "log.jsonl"
    cfg = _tiny_run_cfg(fcfg, steps=40, seed=0, gan_start_step=10**9)
    list(train.train_t2m(samples, cfg, log_path=path))
    entries = [json.loads(l) for l in path.read_text().splitlines()]
    first = np.mean([e["recon"] for e in entries[:5]])
    last = np.mean([e["recon"] for e in entries[-5:]])
    assert last < first


def test_critic_and_generator_updates_are_isolated(toy_samples):
    """During the critic phase the generator parameters stay untouched and
    vice versa."""
    samples, fcfg = toy_samples
    cfg = _tiny_run_cfg(fcfg)
    for stage in train.STAGES.values():
        rng = np.random.default_rng(0)
        gen_params = stage.init(cfg.model, rng)
        dcfg = model.DiscriminatorConfig(in_channels=stage.channels(cfg.model), channels=8)
        disc_params = model.init_discriminator_params(dcfg, rng)
        gen_before = {k: v.data.copy() for k, v in gen_params.items()}
        _, mask, forward = stage.batch(samples[:4], cfg.model, gen_params)
        with ad.no_grad():
            y, _ = forward()
        fake = (y.data * mask).astype(np.float32)
        real, _, _ = stage.batch(samples[:4], cfg.model, gen_params)
        real, fake = train._align_time(real, fake)
        critic = model.critic(dcfg, disc_params)
        train.critic_update(real, fake, critic, disc_params, AdamState(), rng, 10.0)
        for k in gen_params:
            np.testing.assert_array_equal(gen_params[k].data, gen_before[k])

        disc_before = {k: v.data.copy() for k, v in disc_params.items()}
        _, mask, forward = stage.batch(samples[:4], cfg.model, gen_params)
        y, recon = forward()
        scores = model.discriminator_forward(ad.mul(y, Tensor(mask)), dcfg, disc_params)
        gan = losses.wgan_generator_loss(scores)
        train.generator_update(recon(), gan, gen_params, AdamState())
        for k in disc_params:
            np.testing.assert_array_equal(disc_params[k].data, disc_before[k])
        assert any(
            not np.array_equal(gen_params[k].data, gen_before[k]) for k in gen_params
        )


def test_checkpoint_roundtrip_and_errors(toy_samples, tmp_path):
    samples, fcfg = toy_samples
    ck = list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=2)))[-1]
    path = tmp_path / "ck.mfck"
    train.save_checkpoint(ck, path)
    back = train.load_checkpoint(path)
    assert back.model_id == "t2m" and back.iteration == 2
    for k in ck.params:
        np.testing.assert_array_equal(ck.params[k], back.params[k])
    for k in ck.opt["m"]:
        np.testing.assert_array_equal(ck.opt["m"][k], back.opt["m"][k])
    assert back.vocab == ck.vocab
    assert back.rng_state == ck.rng_state and back.batch_queue == ck.batch_queue

    data = path.read_bytes()
    (tmp_path / "cut.mfck").write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError, match="truncated"):
        train.load_checkpoint(tmp_path / "cut.mfck")
    (tmp_path / "junk.mfck").write_bytes(b"????" + data[4:])
    with pytest.raises(FormatError):
        train.load_checkpoint(tmp_path / "junk.mfck")
    with pytest.raises(CompatibilityError):
        train.load_checkpoint(path, expect_hash="0000000000000000")
    # force overrides the hash check
    assert train.load_checkpoint(path, expect_hash="0" * 16, force=True).iteration == 2

    (tmp_path / "v1.mfck").write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
    with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
        train.load_checkpoint(tmp_path / "v1.mfck")
    (mlen,) = struct.unpack("<I", data[8:12])
    meta, tables = json.loads(data[12 : 12 + mlen]), data[12 + mlen :]

    def with_meta(obj, tail=tables):
        blob = json.dumps(obj).encode("utf-8")
        bad = tmp_path / "bad.mfck"
        bad.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + tail)
        return bad

    bad_metas = [[meta], "t2m", {**meta, "model_id": "vocoder"}, {**meta, "model_id": 1}]
    for key in train._REQUIRED_META:
        bad_metas.append({k: v for k, v in meta.items() if k != key})
    for bad_meta in bad_metas:
        with pytest.raises(FormatError):
            train.load_checkpoint(with_meta(bad_meta))
    # the first tensor name of the first table, made undecodable
    (nlen,) = struct.unpack("<H", tables[4:6])
    bad_name = tables[:6] + b"\xff" * nlen + tables[6 + nlen :]
    with pytest.raises(FormatError, match="not UTF-8"):
        train.load_checkpoint(with_meta(meta, bad_name))


def _meta_only_checkpoint(**meta):
    table = {"w": np.zeros((2, 3), dtype=np.float32)}
    ck = train.Checkpoint(
        model_id="t2m", iteration=4, params=table, disc_params=table,
        opt={"m": table, "v": table}, opt_t=4,
        disc_opt={"m": table, "v": table}, disc_opt_t=20,
        vocab=CharVocab().chars, feature_hash="0123456789abcdef",
    )
    return replace(ck, **meta)


@pytest.mark.parametrize(
    "key,value",
    [
        ("iteration", "5"),
        ("iteration", True),
        ("opt_t", "x"),
        ("opt_t", -1),
        ("disc_opt_t", 2.0),
        ("vocab", 123),
        ("vocab", "abc"),
        ("vocab", ""),
        ("feature_hash", 7),
    ],
)
def test_checkpoint_metadata_types_are_checked(tmp_path, key, value):
    """A metadata field of the wrong type is refused when the checkpoint is
    loaded, naming the field, not later inside training or synthesis."""
    path = tmp_path / "ok.mfck"
    train.save_checkpoint(_meta_only_checkpoint(), path)
    assert train.load_checkpoint(path).iteration == 4
    train.save_checkpoint(_meta_only_checkpoint(**{key: value}), path)
    with pytest.raises(FormatError, match=key):
        train.load_checkpoint(path)


def test_save_checkpoint_leaves_old_file_on_crash(toy_samples, tmp_path, monkeypatch):
    samples, fcfg = toy_samples
    ck = list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=1)))[-1]
    path = tmp_path / "ck.mfck"
    train.save_checkpoint(ck, path)
    before = path.read_bytes()
    write_table = train._write_tensor_table
    calls = []

    def crash_in_second_table(f, table):
        calls.append(1)
        if len(calls) == 2:
            f.write(b"partial")
            raise OSError("disk full")
        write_table(f, table)

    monkeypatch.setattr(train, "_write_tensor_table", crash_in_second_table)
    ck.iteration = 7
    with pytest.raises(OSError, match="disk full"):
        train.save_checkpoint(ck, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.mfck"]


def test_resume_continues_iteration(toy_samples, tmp_path):
    """2 steps, save, load and 2 more steps equal 4 uninterrupted steps bit
    for bit, in both stages."""
    samples, fcfg = toy_samples
    halves = {}
    for model_id, loop in (("t2m", train.train_t2m), ("ssrn", train.train_ssrn)):
        full = list(loop(samples, _tiny_run_cfg(fcfg, steps=4)))[-1]
        half = list(loop(samples, _tiny_run_cfg(fcfg, steps=2)))[-1]
        train.save_checkpoint(half, tmp_path / "h.mfck")
        halves[model_id] = half = train.load_checkpoint(tmp_path / "h.mfck")
        out = list(loop(samples, _tiny_run_cfg(fcfg, steps=4), resume=half))[-1]
        assert out.iteration == 4
        assert (out.opt_t, out.disc_opt_t) == (full.opt_t, full.disc_opt_t)
        for got, want in (
            (out.params, full.params),
            (out.disc_params, full.disc_params),
            (out.opt["m"], full.opt["m"]),
            (out.opt["v"], full.opt["v"]),
            (out.disc_opt["m"], full.disc_opt["m"]),
            (out.disc_opt["v"], full.disc_opt["v"]),
        ):
            assert got.keys() == want.keys()
            for k in want:
                np.testing.assert_array_equal(got[k], want[k])
    with pytest.raises(CompatibilityError):
        list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=3), resume=halves["ssrn"]))
    bad_queue = replace(halves["t2m"], batch_queue=[0, 99])
    with pytest.raises(CompatibilityError, match="queue"):
        list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=3), resume=bad_queue))


def test_resume_refuses_changed_train_recipe(toy_samples):
    """A checkpoint resumes only under the train settings it was made with;
    max_iters, checkpoint_every and log_every may change."""
    samples, fcfg = toy_samples
    half = list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=2)))[-1]
    cfg = _tiny_run_cfg(fcfg, steps=4)
    other = replace(cfg, train=replace(cfg.train, batch_size=2, seed=9))
    with pytest.raises(CompatibilityError, match="batch_size 4 -> 2, seed 3 -> 9"):
        list(train.train_t2m(samples, other, resume=half))
    for change in ({"n_critic": 4}, {"disc_variant": "v2"}, {"alpha": 1e-4}):
        changed = replace(cfg, train=replace(cfg.train, **change))
        with pytest.raises(CompatibilityError, match=next(iter(change))):
            list(train.train_t2m(samples, changed, resume=half))
    free = replace(cfg, train=replace(cfg.train, checkpoint_every=1, log_every=7))
    assert [ck.iteration for ck in train.train_t2m(samples, free, resume=half)] == [3, 4]


def test_yielded_moments_do_not_move_with_training(toy_samples):
    samples, fcfg = toy_samples
    cfg = _tiny_run_cfg(fcfg, steps=2)
    cfg = replace(cfg, train=replace(cfg.train, checkpoint_every=1))
    run = train.train_t2m(samples, cfg)
    ck = next(run)
    at_yield = {
        (which, table, k): v.copy()
        for which, tables in (("opt", ck.opt), ("disc_opt", ck.disc_opt))
        for table in ("m", "v")
        for k, v in tables[table].items()
    }
    assert at_yield
    assert next(run).iteration == 2  # one more step of both optimizers
    for (which, table, k), v in at_yield.items():
        np.testing.assert_array_equal(getattr(ck, which)[table][k], v)


@pytest.mark.parametrize("model_id", ["t2m", "ssrn"])
def test_stage_batch_shapes(toy_samples, model_id):
    samples, fcfg = toy_samples
    cfg = _tiny_run_cfg(fcfg)
    stage = train.STAGES[model_id]
    params = stage.init(cfg.model, np.random.default_rng(0))
    real, mask, forward = stage.batch(samples[:4], cfg.model, params)
    assert real.shape[:2] == (4, stage.channels(cfg.model))
    assert mask.shape == (4, 1, real.shape[2])
    if stage.feature == "lin":
        assert real.shape[2] % cfg.model.downsample == 0
    # the critic's real batch as it was built apart from the generator
    # target: each feature zero-padded to the longest, lin then to a
    # multiple of the factor
    feats = [getattr(s, stage.feature) for s in samples[:4]]
    t = max(f.shape[1] for f in feats)
    if stage.feature == "lin":
        t = -(-t // cfg.model.downsample) * cfg.model.downsample
    expect = np.zeros((4, feats[0].shape[0], t), dtype=np.float32)
    expect_mask = np.zeros((4, 1, t), dtype=np.float32)
    for i, f in enumerate(feats):
        expect[i, :, : f.shape[1]] = f
        expect_mask[i, :, : f.shape[1]] = 1.0
    np.testing.assert_array_equal(real, expect)
    np.testing.assert_array_equal(mask, expect_mask)
    with ad.no_grad():
        y, recon = forward()
        assert y.shape == real.shape
        assert np.isfinite(float(recon().data))


def _one_critic_step(variant, t, dtype):
    """One critic_update from zero Adam moments, at parameters and batches
    drawn in float64 from a seed and cast to ``dtype``."""
    rng = np.random.default_rng(t)
    dc = model.DiscriminatorConfig(in_channels=10, channels=16, variant=variant)
    with ad.using_dtype(np.float64):
        init = {k: v.data for k, v in model.init_discriminator_params(dc, rng).items()}
    real, fake = rng.random((2, 16, 10, t))
    with ad.using_dtype(dtype):
        p = {k: Tensor(v.astype(dtype), requires_grad=True) for k, v in init.items()}
        opt = AdamState()
        stats = train.critic_update(
            real.astype(dtype), fake.astype(dtype), model.critic(dc, p), p, opt,
            np.random.default_rng(7), 10.0,
        )
    return dc, init, real, fake, p, stats, opt


@pytest.mark.parametrize("variant", model.DISC_VARIANTS)
@pytest.mark.parametrize("t", [15, 16])
def test_critic_update_gradient_matches_central_differences(variant, t):
    """The gradient one float64 critic_update hands Adam, read back from the
    first moment (m = (1 - beta1) g from zero moments), against central
    differences of the full loss along random unit directions.  That loss
    takes the penalty from discriminator_forward's whole input gradient at
    the interpolate, with the step's own draw of u, so it shares neither
    the Gram-matrix norm nor the tangent with the step.  Measured worst gap
    over the six cases, three directions each: 1.6e-11 of |g|; the bound
    is 1e-7 |g|.  Without the tangent's term every case fails, with gaps
    from 2.4e-3 to 0.24 of |g|."""
    dc, init, real, fake, _, _, opt = _one_critic_step(variant, t, np.float64)
    g = {k: opt.m[k] / (1.0 - opt.beta1) for k in init}
    g_norm = np.sqrt(sum(float(np.sum(x * x)) for x in g.values()))
    u = np.random.default_rng(7).uniform(size=(real.shape[0], 1, 1))
    dir_rng = np.random.default_rng([t, len(variant)])
    eps = 1e-5
    with ad.using_dtype(np.float64):
        for _ in range(3):
            d = {k: dir_rng.standard_normal(v.shape) for k, v in init.items()}
            d_norm = np.sqrt(sum(float(np.sum(x * x)) for x in d.values()))

            def loss_at(s):
                p = {k: Tensor(v + s * eps * d[k] / d_norm) for k, v in init.items()}
                fwd = lambda x: model.discriminator_forward(x, dc, p)
                return input_gradient_critic_loss(real, fake, u, fwd, 10.0)

            fd = (loss_at(1.0) - loss_at(-1.0)) / (2 * eps)
            analytic = sum(float(np.sum(g[k] * d[k])) for k in init) / d_norm
            assert abs(analytic - fd) <= 1e-7 * g_norm, (analytic, fd, g_norm)


@pytest.mark.parametrize("variant", model.DISC_VARIANTS)
@pytest.mark.parametrize("t", [15, 16])
def test_critic_update_float32_matches_float64(variant, t):
    """One float32 critic_update against the float64 step from the same
    parameters, batches and draws of u.  Measured over three variants and
    odd and even T: loss and grad_norm within 1.7e-7 relative, Adam moments
    within 3.1e-6 of each tensor's max, so the bounds are 2e-6 and 1e-5.
    The first Adam step moves a parameter by alpha * g / (|g| + eps), so an
    element whose float32 gradient is within rounding of zero can move by
    part of a step; bounded by alpha / 4."""
    runs = [_one_critic_step(variant, t, dtype) for dtype in (np.float64, np.float32)]
    (_, init, _, _, p64, want, opt64), (_, _, _, _, p32, got, opt32) = runs
    for key in ("critic_loss", "grad_norm"):
        assert got[key] == pytest.approx(want[key], rel=2e-6), key
    assert opt32.t == opt64.t == 1
    for k in init:
        for a, b in ((opt32.m[k], opt64.m[k]), (opt32.v[k], opt64.v[k])):
            assert max_rel_err(a, b, floor=1e-30) <= 1e-5, k
        assert np.abs(p32[k].data - p64[k].data).max() <= opt32.alpha / 4, k


def test_wgan_gp_sanity_1d_two_point():
    """Linear critic on two shifted two-point distributions: the trained
    Wasserstein estimate approaches the true distance 1.0 and the
    interpolate gradient norms sit near 1."""
    rng = np.random.default_rng(0)
    real_pts = np.array([0.0, 1.0])
    fake_pts = np.array([-1.0, 0.0])  # true W1 distance = 1.0
    params = {
        "w": Tensor(np.array([0.2], dtype=np.float64), requires_grad=True),
        "b": Tensor(np.array([0.0], dtype=np.float64), requires_grad=True),
    }

    w, b = params["w"], params["b"]
    critic = model.Critic(  # per-sample scalar scores w*x + b; d/dx is w*delta
        front=lambda x: ops.mul(x, w),
        body=lambda z: ops.add(ops.reshape(z, (z.shape[0],)), b),
        tangent=lambda z, dz: ops.reshape(dz, (dz.shape[0],)),
        grad_sq=lambda delta, t: ops.reshape(
            ops.mul(ops.mul(delta, delta), ops.mul(w, w)), (delta.shape[0],)
        ),
    )
    opt = AdamState(alpha=5e-3)
    norm_tail = []
    with ad.using_dtype(np.float64):
        for step in range(2500):
            real = rng.choice(real_pts, size=16)[:, None]
            fake = rng.choice(fake_pts, size=16)[:, None]
            stats = train.critic_update(real, fake, critic, params, opt, rng, 10.0)
            if step >= 2400:
                norm_tail.append(stats["grad_norm"])
        # exact expectations over the two point masses
        est = float(
            np.mean(critic.body(critic.front(Tensor(real_pts[:, None]))).data)
            - np.mean(critic.body(critic.front(Tensor(fake_pts[:, None]))).data)
        )
    assert abs(est - 1.0) <= 0.1  # true W1 distance is 1.0
    assert 0.9 <= np.mean(norm_tail) <= 1.1


def test_generator_update_rejects_nonfinite():
    p = {"w": Tensor(np.ones(2, dtype=np.float32), requires_grad=True)}
    bad = Tensor(np.array(np.inf))
    from melforge.errors import TrainingAborted

    with pytest.raises(TrainingAborted):
        train.generator_update(bad, None, p, AdamState())
    recon = ops.mean(ops.mul(p["w"], p["w"]))
    for gan in (np.nan, np.inf):
        with pytest.raises(TrainingAborted, match="adversarial"):
            train.generator_update(recon, Tensor(np.array(gan)), p, AdamState())
    np.testing.assert_array_equal(p["w"].data, np.ones(2, dtype=np.float32))
