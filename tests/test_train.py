"""Training-loop behavior: determinism, parameter isolation between critic
and generator phases, checkpoint round trips and the 1-D WGAN-GP sanity
setup with a linear critic."""

import json
from dataclasses import replace

import numpy as np
import pytest

import melforge.autodiff as ad
from melforge import train
from melforge.autodiff import AdamState, Tensor, ops
from melforge.config import RunConfig, TrainConfig
from melforge.errors import CompatibilityError, FormatError
from melforge.model import ModelConfig


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
            e.pop("wall_ms")  # the only nondeterministic field
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
    rng = np.random.default_rng(0)
    import melforge.model as model

    gen_params = model.init_t2m_params(cfg.model, rng)
    dcfg = model.DiscriminatorConfig(in_channels=cfg.model.n_mels, channels=8)
    disc_params = model.init_discriminator_params(dcfg, rng)
    gen_before = {k: v.data.copy() for k, v in gen_params.items()}
    fake = train._fake_batch(samples[:4], "t2m", gen_params, cfg.model)
    real = train._real_batch(samples[:4], "t2m", cfg.model)
    real, fake = train._align_time(real, fake)
    train.critic_update(
        real, fake,
        lambda x: model.discriminator_forward(x, dcfg, disc_params),
        disc_params, AdamState(), rng, 10.0,
    )
    for k in gen_params:
        np.testing.assert_array_equal(gen_params[k].data, gen_before[k])

    disc_before = {k: v.data.copy() for k, v in disc_params.items()}
    recon, gan = train._generator_losses(
        samples[:4], "t2m", gen_params, cfg.model,
        lambda x: model.discriminator_forward(x, dcfg, disc_params),
    )
    train.generator_update(recon, gan, gen_params, AdamState())
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


def test_resume_continues_iteration(toy_samples, tmp_path):
    samples, fcfg = toy_samples
    ck = list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=2)))[-1]
    cks = list(train.train_ssrn(samples, _tiny_run_cfg(fcfg, steps=2)))
    with pytest.raises(CompatibilityError):
        list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=3), resume=cks[-1]))
    out = list(train.train_t2m(samples, _tiny_run_cfg(fcfg, steps=4), resume=ck))
    assert out[-1].iteration == 4


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


def test_ssrn_batch_shapes(toy_samples):
    import melforge.model as model

    samples, fcfg = toy_samples
    cfg = _tiny_run_cfg(fcfg)
    params = model.init_ssrn_params(cfg.model, np.random.default_rng(0))
    lin, mask, y = train._ssrn_batch(samples[:4], cfg.model, params, with_grad=False)
    assert lin.shape[0] == 4 and lin.shape[1] == cfg.model.n_bins
    assert lin.shape[2] % cfg.model.downsample == 0
    assert y.shape == lin.shape


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

    def critic(x):  # per-sample scalar scores: w*x + b
        flat = ops.reshape(x, (x.shape[0],))
        return ops.add(ops.mul(flat, params["w"]), params["b"])

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
            np.mean(critic(Tensor(real_pts[:, None])).data)
            - np.mean(critic(Tensor(fake_pts[:, None])).data)
        )
    assert abs(est - 1.0) <= 0.1  # true W1 distance is 1.0
    assert 0.9 <= np.mean(norm_tail) <= 1.1


def test_generator_update_rejects_nonfinite():
    p = {"w": Tensor(np.ones(2, dtype=np.float32), requires_grad=True)}
    bad = Tensor(np.array(np.inf))
    from melforge.errors import TrainingAborted

    with pytest.raises(TrainingAborted):
        train.generator_update(bad, None, p, AdamState())
