"""`synth` workload: text to WAV along the `melforge synth` chain.

`model.t2m_generate` -> `model.ssrn_forward` -> `dsp.denormalize_db` ->
`dsp.griffin_lim` -> `dsp.write_wav`, at the `ModelConfig` default width,
for one short utterance decoded to 100 frames and one long utterance
decoded to 400 frames (the CLI's ``--max-frames`` default).  ``stop_energy``
is 0, so no frame counts as silent and every decode runs to its frame cap.
The checkpoints come from one outer step of each network through
`train.train_t2m` / `train.train_ssrn`, saved and loaded again with
`train.save_checkpoint` / `train.load_checkpoint`, as `melforge train` and
`melforge synth` do.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from melforge import autodiff as ad
from melforge import dsp, model, textproc, train
from melforge.autodiff import Tensor
from melforge.config import RunConfig

from common import prepared_fixture

FRAMES = {"short": 100, "long": 400}
TEXT_CHARS = {"short": 30, "long": 100}
ALPHABET = "abcdefghijklmnopqrstuvwxyz"
SETUP_BATCH = 4
ATOL_MEL = 1e-4
ATOL_ATT = 1e-5


def _text(rng, n_chars: int) -> str:
    """Words of 2-7 letters separated by single spaces, exactly n_chars long."""
    out = []
    while len(out) < n_chars:
        if out:
            out.append(" ")
        out.extend(rng.choice(list(ALPHABET), size=int(rng.integers(2, 8))))
    text = "".join(out[:n_chars])
    return text[:-1] + "a" if text.endswith(" ") else text


class SynthWorkload:
    kinds = ("short", "long")
    # three short utterances per long one, so both kinds get several samples
    round = ("short", "short", "short", "long")
    display = {"short": ("synth_short_s", "s", 1.0), "long": ("synth_long_s", "s", 1.0)}
    stop_on_failure = False

    def setup(self, work, seed):
        cfg, samples, store = prepared_fixture(work, seed)
        run_cfg = replace(
            cfg, train=replace(cfg.train, batch_size=SETUP_BATCH, max_iters=1, checkpoint_every=1, seed=seed)
        )
        paths = {}
        for kind, loop in (("t2m", train.train_t2m), ("ssrn", train.train_ssrn)):
            for ck in loop(samples, run_cfg):
                paths[kind] = work / f"{kind}.mfck"
                train.save_checkpoint(ck, paths[kind])
        t2m_ck = train.load_checkpoint(paths["t2m"])
        ssrn_ck = train.load_checkpoint(paths["ssrn"], expect_hash=t2m_ck.feature_hash)
        self.cfg = RunConfig.from_dict(t2m_ck.config)
        self.mcfg = self.cfg.model
        self.t2m = {k: Tensor(v) for k, v in t2m_ck.params.items()}
        self.ssrn = {k: Tensor(v) for k, v in ssrn_ck.params.items()}
        vocab = textproc.CharVocab(t2m_ck.vocab)
        rng = np.random.default_rng([seed, 11])
        self.texts = {}
        for kind in self.kinds:
            text = textproc.normalize_text(_text(rng, TEXT_CHARS[kind]), vocab)
            self.texts[kind] = textproc.encode(text, vocab).indices
        self.spk = store[("spk0", "spk1")[int(rng.integers(2))]]
        self.work = work
        # warm-up: every stage once on a tiny input
        mel, _, _ = model.t2m_generate(self.texts["short"], self.spk, self.t2m, self.mcfg, max_frames=4)
        lin = model.ssrn_forward(mel, self.ssrn, self.mcfg).data
        dsp.griffin_lim(dsp.denormalize_db(lin, self.cfg.dsp.ref_lin), iters=2)

    def op(self, kind):
        d = self.cfg.dsp
        mel, att, path = model.t2m_generate(
            self.texts[kind], self.spk, self.t2m, self.mcfg,
            max_frames=FRAMES[kind], stop_energy=0.0,
        )
        lin = model.ssrn_forward(mel, self.ssrn, self.mcfg).data
        mag = dsp.denormalize_db(lin, d.ref_lin, d.gl_sharpen)
        wave, errors = dsp.griffin_lim(
            mag, iters=d.gl_iters, win=d.win, hop=d.hop, sample_rate=d.sample_rate,
            seed=self.cfg.train.seed, return_errors=True,
        )
        out = self.work / f"{kind}.wav"
        dsp.write_wav(wave, out)
        return mel, att, path, wave, errors, out

    def check(self, kind, result) -> list[str]:
        mel, att, path, wave, errors, out = result
        frames = FRAMES[kind]
        idx = self.texts[kind]
        n = idx.size
        bad = []
        if mel.shape != (self.mcfg.n_mels, frames) or att.shape != (n, frames) or len(path) != frames:
            return [f"{kind}: shapes mel {mel.shape} att {att.shape} path {len(path)} for {frames} frames"]
        # one causal parallel pass over the emitted frames reproduces them
        with ad.no_grad():
            k, v = model.tenc_forward(idx, self.t2m, self.mcfg)
            prefix = np.zeros_like(mel)
            prefix[:, 1:] = mel[:, :-1]
            spk = self.spk.vector.astype(mel.dtype)
            q = model.asenc_forward(prefix, spk, self.t2m, self.mcfg).data
            context = (v.data @ att).astype(mel.dtype)
            y = model.adec_forward(np.concatenate([context, q]), self.t2m, self.mcfg).data
        err = float(np.max(np.abs(y - mel)))
        if err > ATOL_MEL:
            bad.append(f"{kind}: parallel decoder pass differs from the emitted mel by {err:.3e}")
        # attention columns: softmax of K^T q / sqrt(d) over [p_prev, p_prev + 2]
        scores = (k.data.T @ q).astype(np.float64) / np.sqrt(k.shape[0])
        p_prev = 0
        for t in range(frames):
            lo, hi = p_prev, min(p_prev + 2, n - 1)
            col = np.zeros(n)
            e = np.exp(scores[lo : hi + 1, t] - scores[lo : hi + 1, t].max())
            col[lo : hi + 1] = e / e.sum()
            if not np.allclose(att[:, t], col, rtol=0.0, atol=ATOL_ATT):
                bad.append(f"{kind}: attention column {t} differs from its windowed softmax")
                break
            if path[t] - p_prev not in (0, 1, 2) or path[t] != int(np.argmax(att[:, t])):
                bad.append(f"{kind}: path step {p_prev} -> {path[t]} at frame {t}")
                break
            p_prev = path[t]
        if len(errors) != self.cfg.dsp.gl_iters + 1 or any(b > a for a, b in zip(errors, errors[1:])):
            bad.append(f"{kind}: Griffin-Lim error history is not non-increasing")
        n_samples = 4 * frames * self.cfg.dsp.hop
        back = dsp.read_wav(out)
        expect = np.clip(np.round(np.clip(wave.samples, -1.0, 1.0) * 32768.0), -32768, 32767) / 32768.0
        if back.samples.size != n_samples or wave.samples.size != n_samples:
            bad.append(f"{kind}: WAV has {back.samples.size} samples, expected {n_samples}")
        elif back.sample_rate != self.cfg.dsp.sample_rate or not np.array_equal(back.samples, expect):
            bad.append(f"{kind}: WAV does not read back as written")
        return bad

    def final_check(self) -> list[str]:
        return []

    def close(self):
        pass

    def layer_metrics(self, by_kind, med) -> dict[str, float]:
        m = {}
        for k in self.kinds:
            ops, frames = by_kind[k], FRAMES[k]
            total = lambda name: med(ops, lambda s: s["total_ms"].get(name, 0.0))
            m[f"model.t2m_generate_ms_per_frame.{k}"] = total("model.t2m_generate") / frames
            m[f"model.asenc_forward_ms_per_frame.{k}"] = total("model.asenc_forward") / frames
            m[f"model.adec_forward_ms_per_frame.{k}"] = total("model.adec_forward") / frames
            m[f"model.tenc_forward_ms.{k}"] = total("model.tenc_forward")
            m[f"model.ssrn_forward_ms.{k}"] = total("model.ssrn_forward")
            m[f"kernels.conv_valid_ms.{k}"] = total("kernels.conv_valid")
            m[f"dsp.griffin_lim_ms.{k}"] = total("dsp.griffin_lim")
            m[f"dsp.griffin_lim_ms_per_iter.{k}"] = total("dsp.griffin_lim") / self.cfg.dsp.gl_iters
        return m
