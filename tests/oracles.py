"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive (nested loops, O(n^2) transforms,
exhaustive sweeps, full-prefix recomputation) and shares no code with the
package internals; ``prefix_decode`` calls only the public model layers,
``strided_griffin_lim`` only the framing and overlap-add helpers of
``melforge.dsp``, which ``loop_istft`` checks on their own, and
``input_gradient_critic_loss`` only the public autodiff functions.  The
trial and score CSV writers write row by row through ``csv.writer``, and
their readers read through ``csv.DictReader``.
"""

import csv
import math

import numpy as np

from melforge import autodiff as ad
from melforge import dsp, model
from melforge.errors import ProtocolError


def naive_dft(frame: np.ndarray) -> np.ndarray:
    """O(n^2) DFT, first n//2+1 bins."""
    n = frame.size
    k = np.arange(n // 2 + 1)[:, None]
    t = np.arange(n)[None, :]
    return (frame[None, :] * np.exp(-2j * np.pi * k * t / n)).sum(axis=1)


def naive_dct2_ortho(x: np.ndarray) -> np.ndarray:
    """O(n^2) orthonormal DCT-II along axis 0."""
    n = x.shape[0]
    out = np.zeros_like(x, dtype=np.float64)
    for k in range(n):
        basis = np.cos(np.pi * (np.arange(n) + 0.5) * k / n)
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * (basis[:, None] * x).sum(axis=0)
    return out


def naive_conv1d(x: np.ndarray, w: np.ndarray, dilation: int, pad_left: int, pad_right: int) -> np.ndarray:
    """Nested-loop dilated convolution over a zero-padded (C_in, T) input."""
    ci, t = x.shape
    co, _, k = w.shape
    xp = np.pad(x, ((0, 0), (pad_left, pad_right)))
    t_out = xp.shape[1] - (k - 1) * dilation
    y = np.zeros((co, t_out))
    for o in range(co):
        for i in range(ci):
            for kk in range(k):
                for tt in range(t_out):
                    y[o, tt] += w[o, i, kk] * xp[i, tt + kk * dilation]
    return y


def naive_conv1d_weight_grad(x: np.ndarray, gy: np.ndarray, dilation: int, ksize: int) -> np.ndarray:
    """Nested-loop weight gradient of the valid dilated convolution.

    x: (B, C_in, Tp), gy: (B, C_out, T_out) -> (C_out, C_in, ksize) with
    gw[co, ci, k] = sum_{b,t} gy[b, co, t] * x[b, ci, t + k*dilation].
    """
    b, ci, _ = x.shape
    _, co, t_out = gy.shape
    gw = np.zeros((co, ci, ksize))
    for o in range(co):
        for i in range(ci):
            for kk in range(ksize):
                for bb in range(b):
                    for tt in range(t_out):
                        gw[o, i, kk] += gy[bb, o, tt] * x[bb, i, tt + kk * dilation]
    return gw


def naive_strided_conv1d(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Same-padded stride-s convolution of (C_in, T); the transposed conv
    must be its exact adjoint."""
    ci, t = x.shape
    co, _, k = w.shape
    total = k - 1
    left = total // 2
    xp = np.pad(x, ((0, 0), (left, total - left)))
    t_out = t // stride
    y = np.zeros((co, t_out))
    for o in range(co):
        for i in range(ci):
            for kk in range(k):
                for tt in range(t_out):
                    y[o, tt] += w[o, i, kk] * xp[i, tt * stride + kk]
    return y


def central_difference_grad(f, x: np.ndarray, eps: float) -> np.ndarray:
    """Gradient of scalar f at x by central differences, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def brute_force_eer(target, nontarget):
    """Exhaustive threshold sweep with linear interpolation at the
    FRR = FAR crossing."""
    target = np.asarray(target, dtype=np.float64)
    nontarget = np.asarray(nontarget, dtype=np.float64)
    merged = np.sort(np.concatenate([target, nontarget]))
    mids = np.unique((merged[1:] + merged[:-1]) / 2.0)
    thresholds = np.concatenate(([-np.inf], mids, [np.inf]))
    prev = None
    for th in thresholds:
        frr = float(np.mean(target < th))
        far = float(np.mean(nontarget >= th))
        if frr - far >= 0:
            if frr - far == 0:
                return frr, float(th)
            f0, a0, t0 = prev
            s = (a0 - f0) / ((frr - f0) + (a0 - far))
            t0f = t0 if np.isfinite(t0) else th
            thf = th if np.isfinite(th) else t0f
            return f0 + s * (frr - f0), float(t0f + s * (thf - t0f))
        prev = (frr, far, th)
    raise AssertionError("no crossing found")


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors, in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("zero-norm embedding in scoring")
    return float(np.dot(a, b) / (na * nb))


def csv_writer_trial_csv(trials, path) -> None:
    """A trial CSV of the columns ``trials`` (an ``eval.Trials``), one
    ``csv.writer`` row per trial."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("trial_id", "claimed_speaker", "utterance_id", "source", "is_target"))
        for row in zip(*trials):
            writer.writerow([*row[:4], int(row[4])])


def csv_writer_score_csv(trials, scores, path) -> None:
    """A score CSV of the columns ``trials`` and ``scores``, one
    ``csv.writer`` row per trial, each score the ``repr`` of a float."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("trial_id", "claimed_speaker", "source", "is_target", "score"))
        for (trial_id, claimed, _, source, is_target), s in zip(zip(*trials), scores):
            writer.writerow([trial_id, claimed, source, int(is_target), repr(float(s))])


def csv_writer_curve_csv(points, path) -> None:
    """A curve CSV of ``eval.OperatingPoint`` rows, one ``csv.writer`` row
    per point, each value the ``repr`` of a float."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("threshold", "SR", "FRR", "FAR"))
        for p in points:
            writer.writerow([repr(p.threshold), repr(p.sr), repr(p.frr), repr(p.far)])


def dictreader_read_score_csv(path) -> dict[str, float]:
    """trial_id -> score, one ``csv.DictReader`` row at a time, with the
    refusals of ``eval.read_score_csv``."""
    out: dict[str, float] = {}
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        missing = {"trial_id", "claimed_speaker", "source", "is_target", "score"} - set(
            reader.fieldnames or ()
        )
        if missing:
            raise ProtocolError(f"{path}: score CSV missing columns {sorted(missing)}")
        for row in reader:
            trial_id, text = row["trial_id"], row["score"]
            if trial_id in out:
                raise ProtocolError(
                    f"{path}, line {reader.line_num}: repeated trial_id {trial_id!r}"
                )
            try:
                score = float(text)
            except (TypeError, ValueError):  # TypeError: short row, text is None
                score = None
            if score is None or not np.isfinite(score):
                raise ProtocolError(
                    f"{path}, line {reader.line_num}: score {text!r} is not a finite number"
                )
            out[trial_id] = score
    return out


def dictreader_read_trial_csv(path) -> list[list]:
    """The five trial columns (``is_target`` as bools), one
    ``csv.DictReader`` row at a time, with the refusals of
    ``eval.read_trial_csv``."""
    fields = ("trial_id", "claimed_speaker", "utterance_id", "source", "is_target")
    columns: list[list] = [[] for _ in fields]
    seen: set[str] = set()
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        missing = set(fields) - set(reader.fieldnames or ())
        if missing:
            raise ProtocolError(
                f"{path}, line {reader.line_num}: trial CSV missing columns {sorted(missing)}"
            )
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            trial_id, source, flag = row["trial_id"], row["source"], row["is_target"]
            if trial_id in seen:
                raise ProtocolError(f"{where}: repeated trial_id {trial_id!r}")
            if flag not in ("0", "1"):
                raise ProtocolError(f"{where}: is_target {flag!r} is not 0 or 1")
            if source not in ("real", "synthetic"):
                raise ProtocolError(f"{where}: bad trial source {source!r}")
            if source == "synthetic" and flag == "0":
                raise ProtocolError(
                    f"{where}: synthetic trials always claim their target identity"
                )
            seen.add(trial_id)
            for column, field in zip(columns, fields[:4]):
                column.append(row[field])
            columns[4].append(flag == "1")
    return columns


def loop_istft(grid: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Inverse STFT by per-sample overlap-add of hann-windowed frames,
    divided by the overlap-added squared window (floored at 1e-12)."""
    window = np.hanning(win)
    frames = np.fft.irfft(grid.T, n=win, axis=1) * window
    length = (frames.shape[0] - 1) * hop + win
    out = np.zeros(length)
    norm = np.zeros(length)
    for t in range(frames.shape[0]):
        for i in range(win):
            out[t * hop + i] += frames[t, i]
            norm[t * hop + i] += window[i] * window[i]
    return out / np.maximum(norm, 1e-12)


def sweep_sr_frr_far(target, synth, nontarget=None):
    """(threshold, SR, FRR, FAR) at -inf, every midpoint of adjacent sorted
    pooled target and synthetic scores, and +inf, each rate one mean over a
    comparison; FAR is NaN without non-target scores."""
    target = np.asarray(target, dtype=np.float64)
    synth = np.asarray(synth, dtype=np.float64)
    merged = np.sort(np.concatenate([target, synth]))
    mids = np.unique((merged[1:] + merged[:-1]) / 2.0)
    rows = []
    for th in np.concatenate(([-np.inf], mids, [np.inf])):
        sr = float(np.mean(synth >= th))
        frr = float(np.mean(target < th))
        far = float("nan") if nontarget is None else float(np.mean(np.asarray(nontarget, dtype=np.float64) >= th))
        rows.append((float(th), sr, frr, far))
    return rows


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)), floor)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def broadcast_gmm_component_ll(x: np.ndarray, weights, means, variances) -> np.ndarray:
    """(N, K) diagonal-Gaussian log-likelihood plus log weight, from the
    full (N, K, D) difference array."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    diff = x[:, None, :] - means[None, :, :]
    quad = np.sum(diff * diff / variances[None], axis=2)
    logdet = np.sum(np.log(2.0 * np.pi * variances), axis=1)
    return -0.5 * (quad + logdet[None, :]) + np.log(weights)[None, :]


def full_exp_posteriors(comp_ll: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N,) log-sum-exp and (N, K) responsibilities from the exponential of
    every peak-shifted log-likelihood, however far below the peak."""
    peak = comp_ll.max(axis=1, keepdims=True)
    resp = np.exp(comp_ll - peak)
    mass = resp.sum(axis=1, keepdims=True)
    resp /= mass
    return (peak + np.log(mass))[:, 0], resp


def prefix_decode(text_idx, spk, params, cfg, max_frames=200, stop_energy=0.02, stop_run=10):
    """Constrained decoding that re-runs the audio encoder and decoder over
    the whole prefix at every frame, restacking the emitted frames, contexts
    and attention columns from Python lists.  Same contract and outputs as
    ``model.t2m_generate``: (mel (M, T), attention (N, T), path)."""
    idx = np.asarray(text_idx)
    n = idx.size
    spk_vec = spk.vector if isinstance(spk, model.SpeakerEmbedding) else np.asarray(spk)
    dt = params["adec.out.w"].data.dtype
    with ad.no_grad():
        k, v = model.tenc_forward(idx, params, cfg)
        k_np, v_np = k.data, v.data
        d = k_np.shape[0]
        frames, contexts, att_cols, path = [], [], [], []
        p_prev = 0
        low_run = 0
        for t in range(max_frames):
            prefix = np.zeros((cfg.n_mels, t + 1), dtype=dt)
            if frames:
                prefix[:, 1:] = np.stack(frames, axis=1)
            q = model.asenc_forward(prefix, spk_vec.astype(dt), params, cfg).data
            scores = (k_np.T @ q[:, -1]) / np.sqrt(d)
            window = np.full(n, -np.inf)
            lo, hi = p_prev, min(p_prev + 2, n - 1)
            window[lo : hi + 1] = scores[lo : hi + 1]
            col = np.exp(window - window[lo : hi + 1].max())
            col /= col.sum()
            p_t = int(np.argmax(col))
            path.append(p_t)
            att_cols.append(col)
            contexts.append(v_np @ col)
            ctx = np.stack(contexts, axis=1)
            dec_in = np.concatenate([ctx, q], axis=0)
            frame = model.adec_forward(dec_in.astype(dt), params, cfg).data[:, -1]
            frames.append(frame)
            p_prev = p_t
            low_run = low_run + 1 if frame.mean() < stop_energy else 0
            if p_t >= n - 1 and low_run >= stop_run:
                break
    return np.stack(frames, axis=1), np.stack(att_cols, axis=1), path


def strided_griffin_lim(mag, iters, win=1024, hop=256, seed=0, momentum=0.99):
    """Griffin-Lim with every spectrum kept in the (F, T) layout of ``mag``:
    the transposed ``rfft`` output, and an ``irfft`` input mixed from a
    C-ordered ``mag`` and a transposed spectrum.  Same formulas, seeding and
    momentum safeguard as ``dsp.griffin_lim``; returns (samples, errors,
    number of rejected momentum steps)."""
    mag = np.asarray(mag, dtype=np.float64)
    t_frames = mag.shape[1]
    window = np.hanning(win)
    norm = np.maximum(
        dsp._overlap_add(np.broadcast_to(window * window, (t_frames, win)), hop), 1e-12
    )

    def analyze(x):
        return np.fft.rfft(dsp._frames(x, win, hop) * window, axis=1).T

    def synthesize(grid):
        return dsp._overlap_add(np.fft.irfft(grid.T, n=win, axis=1) * window, hop) / norm

    def project(spec):
        return mag * (spec / np.maximum(np.abs(spec), 1e-12))

    rng = np.random.default_rng(seed)
    x = synthesize(project(np.exp(2j * np.pi * rng.random(mag.shape))))
    spec = analyze(x)
    spec_prev = spec
    err = float(np.linalg.norm(np.abs(spec) - mag))
    errors = [err]
    rejected = 0
    for _ in range(iters):
        extrapolated = spec + momentum * (spec - spec_prev)
        cand = synthesize(project(extrapolated))
        cand_spec = analyze(cand)
        cand_err = float(np.linalg.norm(np.abs(cand_spec) - mag))
        if cand_err <= err:
            x, spec_prev, spec, err = cand, spec, cand_spec, cand_err
        else:
            rejected += 1
            plain = synthesize(project(spec))
            plain_spec = analyze(plain)
            x, spec_prev, spec = plain, spec, plain_spec
            err = float(np.linalg.norm(np.abs(plain_spec) - mag))
        errors.append(err)
    pad = win // 2
    out = np.zeros(t_frames * hop)
    avail = x[pad : pad + t_frames * hop]
    out[: avail.size] = avail
    return out, errors, rejected


def input_gradient_critic_loss(real, fake, u, disc_forward, gp_weight):
    """The WGAN-GP critic loss through the full input gradient, as a float:
    the critic runs on real, fake and the interpolate x_hat =
    u*real + (1-u)*fake, and the penalty takes the norm of
    d sum D(x_hat) / d x_hat from a first-order backward pass."""
    x_hat = ad.Tensor(u * real + (1.0 - u) * fake, requires_grad=True)
    (gx,) = ad.grad(ad.tsum(disc_forward(x_hat)), [x_hat])
    norms = np.sqrt(np.sum(gx.data.reshape(real.shape[0], -1) ** 2, axis=1))
    with ad.no_grad():
        d_real = disc_forward(ad.Tensor(real)).data
        d_fake = disc_forward(ad.Tensor(fake)).data
    return float(np.mean(d_fake) - np.mean(d_real) + gp_weight * np.mean((norms - 1.0) ** 2))


def loop_l1_plus_bce(y, s, mask=None, eps: float = 1e-7):
    """The masked L1 + binary cross-entropy loss and its gradient in y, one
    element at a time: the cross-entropy reads y clamped to [eps, 1 - eps],
    and passes a gradient only where eps < y < 1 - eps; |y - s| has
    gradient 0 at y == s.  Both means are over the elements ``mask`` keeps."""
    y = np.asarray(y, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    m = np.broadcast_to(np.ones(1) if mask is None else np.asarray(mask, dtype=np.float64), y.shape)
    count = sum(float(m[i]) for i in np.ndindex(y.shape))
    total = 0.0
    grad = np.zeros(y.shape)
    for i in np.ndindex(y.shape):
        yi, si, wi = float(y[i]), float(s[i]), float(m[i]) / count
        yc = min(max(yi, eps), 1.0 - eps)
        ce = -si * math.log(yc) - (1.0 - si) * math.log(1.0 - yc)
        total += wi * (abs(yi - si) + ce)
        dce = -si / yc + (1.0 - si) / (1.0 - yc) if eps < yi < 1.0 - eps else 0.0
        grad[i] = wi * ((yi > si) - (yi < si) + dce)
    return total, grad
