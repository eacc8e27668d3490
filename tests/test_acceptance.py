"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers.  Run with ``pytest tests/test_acceptance.py -v -s``.

The end-to-end toy run is marked slow; everything else completes in a few
minutes.  Tolerances here are the contract, not calibration knobs.
"""

import json
import time

import numpy as np
import pytest

import melforge.autodiff as ad
from melforge import cli, dsp, losses, model, train
from melforge import eval as ev
from melforge.autodiff import AdamState, Tensor, nn, ops
from melforge.config import ProtocolConfig
from melforge.corpus import EmbeddingStore, Manifest, ManifestRecord
from melforge.model import ModelConfig
from oracles import (
    brute_force_eer,
    central_difference_grad,
    input_gradient_critic_loss,
    max_rel_err,
    naive_dft,
)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# gradient suite
# ---------------------------------------------------------------------------


def test_acceptance_gradient_suite():
    """Layers and both full models pass central finite-difference checks:
    rel err <= 1e-3 float32 / 1e-5 float64; the critic step's gradient,
    gradient penalty included, <= 1e-2 rel in float64 against nested finite
    differences; all within 2 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = {"float32": 0.0, "float64": 0.0}

    def check(build_loss, params, dtype):
        label = np.dtype(dtype).name
        eps = 1e-6 if dtype == np.float64 else 1e-2
        with ad.using_dtype(dtype):
            tensors = [Tensor(p.astype(dtype), requires_grad=True) for p in params]
            grads = ad.grad(build_loss(tensors), tensors)
            for j, (p, g) in enumerate(zip(params, grads)):
                def f(x, j=j):
                    fresh = [Tensor(q.astype(dtype)) for q in params]
                    fresh[j] = Tensor(x.astype(dtype))
                    with ad.no_grad():
                        return float(build_loss(fresh).data)

                fd = central_difference_grad(f, p.astype(np.float64), eps)
                worst[label] = max(worst[label], max_rel_err(g.data, fd))

    # individual layers
    x = rng.standard_normal((1, 3, 8))
    w = rng.standard_normal((4, 3, 3))
    b = rng.standard_normal(4)
    hw_w = rng.standard_normal((6, 3, 3))
    hw_b = rng.standard_normal(6)
    g_ln = rng.uniform(0.5, 1.5, 3)
    wt = rng.standard_normal((3, 2, 2))

    layer_cases = [
        (lambda ts: ad.tsum(ops.sigmoid(nn.conv1d(ts[0], ts[1], ts[2], dilation=2, causal=True))), [x, w, b]),
        (lambda ts: ad.tsum(ops.mul(nn.highway_block(ts[0], ts[1], ts[2], dilation=3, causal=True), 1.0)), [x, hw_w, hw_b]),
        (lambda ts: ad.tsum(ops.sigmoid(nn.layer_norm(ts[0], ts[1], ts[2]))), [x, g_ln, b[:3]]),
        (lambda ts: ad.tsum(ops.mul(nn.conv1d_transposed(ts[0], ts[1]), 0.5)), [x, wt]),
    ]
    for build, params in layer_cases:
        for dtype in (np.float64, np.float32):
            check(build, params, dtype)

    # full models at tiny config: spot-check a sample of coordinates per tensor
    cfg = ModelConfig(
        vocab_size=8, n_mels=6, n_bins=17, attention_dim=8, embed_dim=6,
        speaker_dim=8, width_scale=0.03125,
    )
    text = np.array([1, 3, 2])
    spk = rng.standard_normal(cfg.speaker_dim)
    spk /= np.linalg.norm(spk)
    tgt = rng.random((cfg.n_mels, 4))
    dmel_in = rng.random((cfg.n_mels, 3))
    def jitter(params, seed):
        # keep pre-activations off the ReLU kink where central differences
        # disagree with the subgradient
        r = np.random.default_rng(seed)
        for t in params.values():
            t.data = t.data + 0.05 * r.standard_normal(t.data.shape).astype(t.dtype)

    def model_loss(which, params, dtype):
        if which == "t2m":
            y, att = model.t2m_teacher_forced(
                text[None], tgt[None].astype(dtype), spk[None].astype(dtype), params, cfg
            )
            return ad.add(ad.tsum(ops.mul(y, y)), ad.tsum(ops.mul(att, att)))
        y = model.ssrn_forward(dmel_in.astype(dtype), params, cfg)
        return ad.tsum(ops.mul(y, y))

    # central differences always run in float64 at the same parameter
    # values, so the comparison isolates the backward pass under test
    # (float32 forward noise would otherwise swamp a 1e-3 bound)
    for dtype, tol in ((np.float64, 1e-5), (np.float32, 1e-3)):
        eps = 1e-6
        for which in ("t2m", "ssrn"):
            with ad.using_dtype(np.float64):
                init = (
                    model.init_t2m_params if which == "t2m" else model.init_ssrn_params
                )(cfg, np.random.default_rng(0))
                jitter(init, 1 if which == "t2m" else 2)
            base = {k: t.data.astype(np.float64) for k, t in init.items()}
            with ad.using_dtype(dtype):
                params = {
                    k: Tensor(v.astype(dtype), requires_grad=True)
                    for k, v in base.items()
                }
                names = sorted(params)
                grads = ad.grad(
                    model_loss(which, params, dtype), [params[n] for n in names]
                )
            fd_params = {k: Tensor(v) for k, v in base.items()}
            coord_rng = np.random.default_rng(7)
            label = np.dtype(dtype).name
            with ad.using_dtype(np.float64), ad.set_grad_enabled(False):
                for name, g in zip(names, grads):
                    p = fd_params[name]
                    idx = np.unravel_index(
                        coord_rng.integers(0, p.data.size), p.data.shape
                    )
                    orig = float(p.data[idx])
                    p.data[idx] = orig + eps
                    fp = float(model_loss(which, fd_params, np.float64).data)
                    p.data[idx] = orig - eps
                    fm = float(model_loss(which, fd_params, np.float64).data)
                    p.data[idx] = orig
                    fd = (fp - fm) / (2 * eps)
                    rel = abs(float(g.data[idx]) - fd) / max(abs(fd), 1e-4)
                    worst[label] = max(worst[label], rel)
                    assert rel <= tol, f"{which}.{name} {label}: rel err {rel:.2e}"

    assert worst["float64"] <= 1e-5
    assert worst["float32"] <= 1e-3

    # the critic step's gradient, penalty included, vs nested finite
    # differences (float64): an outer central difference over parameters of
    # the loss whose penalty takes the taped input gradient at the interpolate
    with ad.using_dtype(np.float64):
        dc = model.DiscriminatorConfig(in_channels=6, channels=8)
        dparams = model.init_discriminator_params(dc, np.random.default_rng(3))
        init = {k: t.data.copy() for k, t in dparams.items()}
        real, fake = rng.random((2, 2, 6, 8))
        opt = AdamState()
        critic = model.critic(dc, dparams)
        train.critic_update(real, fake, critic, dparams, opt, np.random.default_rng(4), 10.0)
        u = np.random.default_rng(4).uniform(size=(2, 1, 1))  # the step's draw
        fd_params = {k: Tensor(v) for k, v in init.items()}

        def critic_loss():
            fwd = lambda x: model.discriminator_forward(x, dc, fd_params)
            return input_gradient_critic_loss(real, fake, u, fwd, 10.0)

        name = "disc.conv1.w"
        gw = opt.m[name] / (1.0 - opt.beta1)  # the gradient, from zero moments
        w_fd = fd_params[name].data
        eps = 1e-6
        coord_rng = np.random.default_rng(5)
        worst2 = 0.0
        for _ in range(6):
            idx = np.unravel_index(coord_rng.integers(0, w_fd.size), w_fd.shape)
            orig = float(w_fd[idx])
            w_fd[idx] = orig + eps
            fp = critic_loss()
            w_fd[idx] = orig - eps
            fm = critic_loss()
            w_fd[idx] = orig
            fd = (fp - fm) / (2 * eps)
            worst2 = max(worst2, abs(float(gw[idx]) - fd) / max(abs(fd), 1e-6))
        assert worst2 <= 1e-2

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        "gradient-suite",
        f"layer+model rel err f64 {worst['float64']:.1e}, f32 {worst['float32']:.1e},"
        f" critic step {worst2:.1e}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# DSP suite
# ---------------------------------------------------------------------------


def test_acceptance_dsp_suite():
    """STFT vs naive DFT <= 1e-6; istft round trip SNR > 60 dB; Griffin-Lim
    error non-increasing over 100 iterations on 20 random magnitudes;
    440 Hz sine reconstruction correlation >= 0.99; all within 1 minute."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    x = rng.standard_normal(4096)
    spec = dsp.stft(dsp.Waveform(x, 22050), 1024, 256)
    xp = np.pad(x, (512, 512), mode="reflect")
    win = np.hanning(1024)
    worst_dft = 0.0
    for t in (0, 7, spec.shape[1] - 1):
        frame = xp[t * 256 : t * 256 + 1024] * win
        worst_dft = max(worst_dft, max_rel_err(spec[:, t], naive_dft(frame)))
    assert worst_dft <= 1e-6

    rec = dsp.istft(spec, 1024, 256).samples[512 : 512 + x.size]
    inner = slice(1024, x.size - 1024)
    snr = 10 * np.log10(np.sum(x[inner] ** 2) / np.sum((rec[inner] - x[inner]) ** 2))
    assert snr > 60.0

    mono_ok = 0
    for i in range(20):
        mag = rng.random((513, int(rng.integers(4, 10)))) * 2.0
        _, errs = dsp.griffin_lim(mag, 100, return_errors=True)
        assert all(errs[k + 1] <= errs[k] + 1e-9 for k in range(len(errs) - 1)), i
        mono_ok += 1

    n = 11025
    sine = 0.8 * np.sin(2 * np.pi * 440 * np.arange(n) / 22050)
    mag = np.abs(dsp.stft(dsp.Waveform(sine, 22050), 1024, 256))
    out = dsp.griffin_lim(mag, 100).samples
    m = 1024
    ts = np.arange(m, out.size - m)
    rr = out[m : out.size - m]
    proj = np.hypot(
        np.dot(rr, np.sin(2 * np.pi * 440 * ts / 22050)),
        np.dot(rr, np.cos(2 * np.pi * 440 * ts / 22050)),
    )
    corr = proj / (np.linalg.norm(rr) * np.sqrt(ts.size / 2))
    assert corr >= 0.99

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        "dsp-suite",
        f"dft rel {worst_dft:.1e}, snr {snr:.0f} dB, {mono_ok}/20 monotone,"
        f" sine corr {corr:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# loss suite
# ---------------------------------------------------------------------------


def test_acceptance_loss_suite():
    rng = np.random.default_rng(3)
    # elementwise oracles
    y = rng.uniform(0.01, 0.99, (8, 9))
    s = rng.uniform(0.0, 1.0, (8, 9))
    a = rng.dirichlet(np.ones(5), size=9).T
    w = losses.guided_weights(5, 9)
    naive = (
        np.abs(y - s).mean()
        + (-s * np.log(y) - (1 - s) * np.log(1 - y)).mean()
        + (a * w).mean()
    )
    got = float(losses.recon_loss_t2m(Tensor(y), Tensor(s), Tensor(a), w).data)
    assert abs(got - naive) <= 1e-6
    got2 = float(losses.recon_loss_ssrn(Tensor(y), Tensor(s)).data)
    naive2 = np.abs(y - s).mean() + (-s * np.log(y) - (1 - s) * np.log(1 - y)).mean()
    assert abs(got2 - naive2) <= 1e-6

    # guided-weight spot values, exact to 1e-12
    grid = losses.guided_weights(8, 8)
    assert np.abs(np.diag(grid)).max() <= 1e-12
    assert abs(losses.guided_weight_value(0, 8, 8, 8) - (1 - np.exp(-1))) <= 1e-12

    # per-batch balancing: ratio * mean_gan == mean_recon on random batches
    for _ in range(25):
        mr = float(rng.uniform(0.1, 5))
        mg = float(rng.uniform(-5, 5))
        if abs(mg) < 1e-6:
            continue
        _, ratio = losses.combine_losses(Tensor(np.array(mr)), Tensor(np.array(mg)))
        assert ratio * abs(mg) == pytest.approx(mr, rel=1e-12)

    # zero-gradient fixture: penalty contributes exactly the coefficient
    b = 5
    same = Tensor(np.full(b, 0.3))
    val = float(losses.wgan_critic_loss(same, same, Tensor(np.zeros(b)), 10.0).data)
    assert val == 10.0
    _report("loss-suite", f"oracle diff <= 1e-6, spot values exact, penalty == 10")


# ---------------------------------------------------------------------------
# attention invariant
# ---------------------------------------------------------------------------


def test_acceptance_attention_invariant():
    """1,000 randomized constrained decodes: monotone paths, steps in
    {0, 1, 2}, never exceeding N-1."""
    cfg = ModelConfig(
        vocab_size=10, n_mels=6, n_bins=17, attention_dim=8, embed_dim=6,
        speaker_dim=8, width_scale=0.03125,
    )
    rng = np.random.default_rng(4)
    n_decodes = 0
    for param_seed in range(50):
        params = model.init_t2m_params(cfg, np.random.default_rng(param_seed))
        # random rescaling makes some attention logits extreme
        scale = float(rng.uniform(0.2, 6.0))
        for k in params:
            params[k].data *= scale if k.endswith(".w") else 1.0
        for _ in range(20):
            n = int(rng.integers(1, 13))
            text = rng.integers(1, cfg.vocab_size, n)
            spk = rng.standard_normal(cfg.speaker_dim)
            spk /= np.linalg.norm(spk)
            _, att, path = model.t2m_generate(
                text, spk, params, cfg, max_frames=int(rng.integers(1, 9))
            )
            steps = np.diff([0] + path)
            assert np.all(steps >= 0) and np.all(steps <= 2)
            assert max(path) <= n - 1
            np.testing.assert_allclose(att.sum(axis=0), 1.0, atol=1e-5)
            n_decodes += 1
    assert n_decodes == 1000
    _report("attention-invariant", f"{n_decodes} decodes, all paths valid")


# ---------------------------------------------------------------------------
# evaluation suite
# ---------------------------------------------------------------------------


def test_acceptance_evaluation_suite():
    rng = np.random.default_rng(5)
    for i in range(500):
        t = rng.standard_normal(int(rng.integers(2, 40))) + rng.uniform(0, 2)
        n = rng.standard_normal(int(rng.integers(2, 40)))
        eer, th = ev.compute_eer(t, n)
        ref_eer, ref_th = brute_force_eer(t, n)
        assert eer == ref_eer and th == ref_th, i

    eer, th = ev.compute_eer([0.9, 0.7, 0.4], [0.5, 0.2, 0.1])
    assert abs(eer - 1 / 3) <= 1e-9

    target = rng.standard_normal(50) + 1
    synth = rng.standard_normal(45)
    pts = ev.sr_frr_curve(target, synth)
    srs, frrs = [p.sr for p in pts], [p.frr for p in pts]
    assert all(srs[i + 1] <= srs[i] for i in range(len(srs) - 1))
    assert all(frrs[i + 1] >= frrs[i] for i in range(len(frrs) - 1))

    # spoof-rate/threshold identity: SR = 1 - empirical CDF at threshold
    _, thr = ev.compute_eer(target, rng.standard_normal(40))
    assert ev.spoof_rate(synth, thr) == pytest.approx(
        1.0 - np.mean(synth < thr), abs=1e-12
    )

    a = rng.standard_normal((300, 2)) * 0.25 + [2, 0]
    b = rng.standard_normal((300, 2)) * 0.25 + [-2, 1]
    gmm, hist = ev.gmm_fit_em(np.vstack([a, b]), 2, iters=40, seed=0)
    assert all(hist[i + 1] >= hist[i] - 1e-6 for i in range(len(hist) - 1))
    means = gmm.means[np.argsort(gmm.means[:, 0])]
    assert np.abs(means - np.array([[-2, 1], [2, 0]])).max() < 0.1
    _report("evaluation-suite", "500/500 brute-force exact, curves monotone, GMM ok")


# ---------------------------------------------------------------------------
# WGAN-GP sanity
# ---------------------------------------------------------------------------


def test_acceptance_wgan_gp_sanity():
    """Linear critic on a 1-D two-point task: Wasserstein estimate within
    10% of the true distance, interpolate gradient norms in [0.9, 1.1]."""
    rng = np.random.default_rng(6)
    real_pts = np.array([0.0, 1.0])
    fake_pts = np.array([-1.0, 0.0])  # true W1 = 1.0
    with ad.using_dtype(np.float64):
        params = {
            "w": Tensor(np.array([0.1]), requires_grad=True),
            "b": Tensor(np.array([0.0]), requires_grad=True),
        }

        w, b = params["w"], params["b"]
        critic = model.Critic(  # w*x + b, whose input gradient is w*delta
            front=lambda x: ops.mul(x, w),
            body=lambda z: ops.add(ops.reshape(z, (z.shape[0],)), b),
            tangent=lambda z, dz: ops.reshape(dz, (dz.shape[0],)),
            grad_sq=lambda delta, t: ops.reshape(
                ops.mul(ops.mul(delta, delta), ops.mul(w, w)), (delta.shape[0],)
            ),
        )

        opt = AdamState(alpha=5e-3)
        tail = []
        for step in range(2500):
            real = rng.choice(real_pts, size=16)[:, None]
            fake = rng.choice(fake_pts, size=16)[:, None]
            stats = train.critic_update(real, fake, critic, params, opt, rng, 10.0)
            if step >= 2400:
                tail.append(stats["grad_norm"])
        est = float(
            np.mean(critic.body(critic.front(Tensor(real_pts[:, None]))).data)
            - np.mean(critic.body(critic.front(Tensor(fake_pts[:, None]))).data)
        )
    assert abs(est - 1.0) <= 0.1
    norm = float(np.mean(tail))
    assert 0.9 <= norm <= 1.1
    _report("wgan-gp-sanity", f"estimate {est:.3f} (true 1.0), grad norm {norm:.3f}")


# ---------------------------------------------------------------------------
# protocol bound
# ---------------------------------------------------------------------------


def test_acceptance_protocol_bound():
    """Synthetic embeddings at the enrollment mean (+ noise of norm <= 0.05)
    spoof at >= 95%; random unit embeddings spoof at <= FAR + 0.05."""
    rng = np.random.default_rng(8)
    dim = 512
    n_spk, n_utts, n_synth = 20, 23, 20
    cfg = ProtocolConfig(n_enroll=3, n_target=20, n_synth=20, seed=0)

    real_records, synth_records = [], []
    store = EmbeddingStore(dim)
    centers = {}
    for s in range(n_spk):
        spk = f"spk{s:02d}"
        c = rng.standard_normal(dim)
        centers[spk] = c / np.linalg.norm(c)
        for u in range(n_utts):
            uid = f"{spk}_u{u:02d}"
            real_records.append(ManifestRecord(uid, spk, uid + ".wav", "x"))
            store.add(uid, centers[spk] + 0.10 * rng.standard_normal(dim))
        for u in range(n_synth):
            uid = f"{spk}_s{u:02d}"
            synth_records.append(ManifestRecord(uid, spk, uid + ".wav", "x"))
    test_man = Manifest(tuple(real_records))
    synth_man = Manifest(tuple(synth_records))
    enrollment, trials = ev.build_protocol(test_man, synth_man, cfg)
    real = np.array(trials.source) == "real"
    synthetic = np.array(trials.source) == "synthetic"
    assert np.sum(trials.is_target & real) == 400
    assert np.sum(synthetic) == 400

    models = {spk: ev.enroll([store[u].vector for u in utts]) for spk, utts in enrollment.items()}

    def run_with_synth(synth_emb_fn):
        for spk, utt, source in zip(trials.claimed_speaker, trials.utterance_id, trials.source):
            if source == "synthetic" and utt not in store:
                store.add(utt, synth_emb_fn(spk))
            elif source == "synthetic":
                store._table[utt] = model.unit_normalized(synth_emb_fn(spk), utt)
        scores = ev.score_trials(models, trials, store)
        target = scores[real & trials.is_target]
        nontarget = scores[real & ~trials.is_target]
        synth = scores[synthetic]
        eer, thr = ev.compute_eer(target, nontarget)
        far = float(np.mean(nontarget >= thr))
        return ev.spoof_rate(synth, thr), far, eer

    def near_enroll(spk):
        noise = rng.standard_normal(dim)
        noise *= 0.05 / np.linalg.norm(noise)
        return models[spk] + noise

    sr_close, far, eer = run_with_synth(near_enroll)
    assert sr_close >= 0.95

    def random_unit(_spk):
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    sr_rand, far2, _ = run_with_synth(random_unit)
    assert sr_rand <= far2 + 0.05
    _report(
        "protocol-bound",
        f"near-enroll SR {sr_close:.3f} >= 0.95; random SR {sr_rand:.3f}"
        f" <= FAR {far2:.3f} + 0.05 (EER {eer:.3f})",
    )


# ---------------------------------------------------------------------------
# end-to-end toy run
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_acceptance_end_to_end_toy(tmp_path):
    """prepare -> train t2m (2k) -> train ssrn (2k) -> synth -> eval on the
    bundled 2-speaker/20-utterance fixture: completes < 30 min,
    teacher-forced reconstruction losses < 0.05 for both models, and the
    synthesized utterance's mel L1 distance to ground truth < 0.15."""
    t0 = time.perf_counter()
    root = tmp_path / "toy"
    assert cli.main(["fixture", str(root), "--seed", "0"]) == 0

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "model": {
                    "width_scale": 0.125,
                    "attention_dim": 64,
                    "embed_dim": 64,
                    "ssrn_width": 32,
                },
                "train": {
                    "batch_size": 16,
                    "max_iters": 2000,
                    "checkpoint_every": 2000,
                    "log_every": 50,
                    "disc_channels": 16,
                    "seed": 1,
                },
                "protocol": {"n_enroll": 2, "n_target": 4, "n_synth": 4},
            }
        )
    )
    prep = tmp_path / "prep"
    assert cli.main(["prepare", str(root), str(prep), "--scheme", "all", "--config", str(cfg_path)]) == 0

    # merge the corpus reference levels resolved by prepare into the config
    merged = json.loads((prep / "config.json").read_text())
    run_cfg_path = tmp_path / "run.json"
    run_cfg_path.write_text(json.dumps(merged))

    ckpt = tmp_path / "ckpt"
    for m in ("t2m", "ssrn"):
        assert cli.main([
            "train", m,
            "--manifest", str(prep / "train.jsonl"),
            "--embeddings", str(root / "embeddings.mfem"),
            "--out", str(ckpt), "--config", str(run_cfg_path),
        ]) == 0
        entries = [json.loads(l) for l in (ckpt / f"{m}_log.jsonl").read_text().splitlines()]
        final_recon = float(np.mean([e["recon"] for e in entries[-3:]]))
        assert final_recon < 0.05, f"{m} reconstruction loss {final_recon:.4f}"
        assert all(e["critic_updates"] == 5 and e["generator_updates"] == 1 for e in entries)
        print(f"\n  e2e {m}: final reconstruction loss {final_recon:.4f}")

    # synthesize a fixture utterance and compare its mel to ground truth
    text_path = tmp_path / "text.txt"
    text = "ab c d."
    text_path.write_text(text)
    wav_out = tmp_path / "synth.wav"
    assert cli.main([
        "synth", "--text", str(text_path), "--speaker", "spk0",
        "--embeddings", str(root / "embeddings.mfem"),
        "--t2m", str(ckpt / "t2m_latest.mfck"),
        "--ssrn", str(ckpt / "ssrn_latest.mfck"),
        "--out", str(wav_out), "--attention", str(tmp_path / "att.csv"),
    ]) == 0

    fcfg = dsp.FeatureConfig(**merged["dsp"])
    mel_syn = dsp.wave_to_features(dsp.read_wav(wav_out), fcfg)["mel"]
    gt_wav = dsp.read_wav(root / "spk0" / "spk0_000.wav")
    mel_gt = dsp.wave_to_features(gt_wav, fcfg)["mel"]
    t_gt = mel_gt.shape[1]
    syn = np.zeros_like(mel_gt)
    take = min(t_gt, mel_syn.shape[1])
    syn[:, :take] = mel_syn[:, :take]
    mel_l1 = float(np.abs(syn - mel_gt).mean())
    assert mel_l1 < 0.15, f"mel L1 {mel_l1:.4f}"

    # exercise the verification protocol end to end on fixture embeddings
    pdir = tmp_path / "proto"
    assert cli.main([
        "eval-sv", "--protocol-dir", str(pdir),
        "--test-manifest", str(prep / "test.jsonl"),
        "--synth-manifest", str(prep / "test.jsonl"),
        "--embeddings", str(root / "embeddings.mfem"),
        "--config", str(run_cfg_path),
    ]) == 0
    report = json.loads((pdir / "report.json").read_text())

    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"end-to-end run took {elapsed / 60:.1f} min"
    _report(
        "end-to-end-toy",
        f"{elapsed / 60:.1f} min, mel L1 {mel_l1:.4f}, sv EER {report['eer']:.3f}",
    )
