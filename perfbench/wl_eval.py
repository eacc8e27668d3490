"""`eval` workload: one `melforge eval-sv` run and one `melforge
eval-antispoof --backend gmm-lfcc` run per round, both through `cli.main`.

eval-sv runs at scheme-s1 trial counts: 66 test speakers at the
`ProtocolConfig` defaults (3 enrollment, 20 target and 20 synthetic
utterances each) give 1,320 target, 85,800 non-target and 1,320 synthetic
trials.  Embeddings are generated: a random unit centre per speaker plus
Gaussian noise, loud enough that target and non-target scores overlap.
Every run gets a fresh, empty protocol directory, because `cmd_eval_sv`
reuses an existing ``trials.csv`` and would skip `build_protocol`.  The
manifests name WAV paths that do not exist; eval-sv never opens them.

eval-antispoof runs at the CLI defaults (64 components, 20 EM iterations)
on real utterances rendered with `fixture.render_text` plus a low noise
floor, against their Griffin-Lim resyntheses.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import shutil

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm

from melforge import cli, corpus, dsp, fixture
from melforge import eval as ev
from melforge.config import ProtocolConfig
from melforge.corpus import EmbeddingStore, Manifest, ManifestRecord

from common import eer_sorted_counts

N_SPEAKERS = 66  # scheme s1 test speakers
EMBED_DIM = 64
REAL_NOISE = 2.0  # noise norm relative to the unit speaker centre
SYNTH_NOISE = 2.5
N_WAVS = 24  # utterances per anti-spoofing class
WAV_CHARS = 21  # characters per utterance: 128 LFCC frames each
NOISE_FLOOR = 1e-3  # white-noise amplitude added to the rendered tones
RESYNTH_ITERS = 8
GMM_ITERS = 20  # eval-antispoof default --gmm-iters
LL_SUBSET = 64


class EvalWorkload:
    kinds = ("sv", "antispoof")
    round = kinds
    display = {"sv": ("eval_sv_s", "s", 1.0), "antispoof": ("antispoof_s", "s", 1.0)}
    stop_on_failure = False

    def __init__(self):
        # keep what eval-antispoof fits, for the EM checks; installed once per
        # process, before any tracer, so a traced run wraps this tap
        self.fits = []
        fit = ev.gmm_fit_em

        @functools.wraps(fit)
        def gmm_fit_em(features, *args, **kwargs):
            gmm, history = fit(features, *args, **kwargs)
            self.fits.append((features, gmm, history))
            return gmm, history

        ev.gmm_fit_em = gmm_fit_em

    def setup(self, work, seed):
        self.work, self.seed = work, seed
        self.proto = ProtocolConfig()
        rng = np.random.default_rng([seed, 13])
        store = EmbeddingStore(EMBED_DIM)
        real, synth = [], []
        n_real = self.proto.n_enroll + self.proto.n_target
        for s in range(N_SPEAKERS):
            spk = f"spk{s:03d}"
            centre = rng.standard_normal(EMBED_DIM)
            centre /= np.linalg.norm(centre)
            for records, prefix, count, noise in (
                (real, "r", n_real, REAL_NOISE), (synth, "s", self.proto.n_synth, SYNTH_NOISE)
            ):
                for u in range(count):
                    utt = f"{spk}_{prefix}{u:02d}"
                    store.add(utt, centre + noise * rng.standard_normal(EMBED_DIM) / np.sqrt(EMBED_DIM))
                    records.append(ManifestRecord(utt, spk, f"{spk}/{utt}.wav", "a"))
        corpus.save_manifest(Manifest(tuple(real)), work / "test.jsonl")
        corpus.save_manifest(Manifest(tuple(synth)), work / "synth.jsonl")
        corpus.save_embeddings(store, work / "embeddings.mfem")

        for d in ("real", "resynth"):
            (work / d).mkdir()
        letters = list(fixture.LETTERS + " ")
        for i in range(N_WAVS):
            text = "".join(rng.choice(letters, size=WAV_CHARS))
            wave = fixture.render_text(text, ("spk0", "spk1")[i % 2])
            noisy = dsp.Waveform(
                wave.samples + NOISE_FLOOR * rng.standard_normal(wave.samples.size), wave.sample_rate
            )
            dsp.write_wav(noisy, work / "real" / f"utt{i:03d}.wav")
            mag = np.abs(dsp.stft(noisy, fixture.WIN, fixture.HOP))
            resynth = dsp.griffin_lim(
                mag, iters=RESYNTH_ITERS, win=fixture.WIN, hop=fixture.HOP,
                sample_rate=fixture.SAMPLE_RATE, seed=int(rng.integers(2**31)),
            )
            dsp.write_wav(resynth, work / "resynth" / f"utt{i:03d}.wav")

        self.n_ops = 0
        self.counts = {}

    def op(self, kind):
        self.n_ops += 1
        out = self.work / f"{kind}{self.n_ops:04d}"
        if kind == "sv":
            argv = [
                "eval-sv", "--protocol-dir", str(out),
                "--test-manifest", str(self.work / "test.jsonl"),
                "--synth-manifest", str(self.work / "synth.jsonl"),
                "--embeddings", str(self.work / "embeddings.mfem"),
                "--seed", str(self.seed),
            ]
        else:
            self.fits.clear()
            argv = [
                "eval-antispoof", "--real", str(self.work / "real"),
                "--synth", str(self.work / "resynth"), "--out", str(out),
                "--seed", str(self.seed),
            ]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with {code}")
        return out

    def check(self, kind, out) -> list[str]:
        try:
            return self._check_sv(out) if kind == "sv" else self._check_antispoof(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_sv(self, out) -> list[str]:
        bad = []
        report = json.loads((out / "report.json").read_text())
        p, s = self.proto, N_SPEAKERS
        expect = {
            "n_target": s * p.n_target,
            "n_nontarget": s * (s - 1) * p.n_target,
            "n_synthetic": s * p.n_synth,
        }
        target, nontarget, synth = [], [], []
        with open(out / "scores.csv", newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                score = float(row["score"])
                if row["source"] == "synthetic":
                    synth.append(score)
                elif row["is_target"] == "1":
                    target.append(score)
                else:
                    nontarget.append(score)
        got = {"n_target": len(target), "n_nontarget": len(nontarget), "n_synthetic": len(synth)}
        for key, want in expect.items():
            if report[key] != want or got[key] != want:
                bad.append(f"eval-sv: {key} is {report[key]} in the report, {got[key]} in "
                           f"scores.csv, expected {want}")
        eer, threshold, n_th = eer_sorted_counts(target, nontarget)
        sr = float(np.mean(np.asarray(synth) >= threshold))
        for key, want in (("eer", eer), ("threshold", threshold), ("spoof_rate", sr)):
            if not math.isclose(report[key], want, rel_tol=1e-9, abs_tol=1e-12):
                bad.append(f"eval-sv: {key} {report[key]!r}, sorted counts give {want!r}")
        with open(out / "curve.csv", newline="", encoding="utf-8") as f:
            rows = [(float(r["SR"]), float(r["FRR"])) for r in csv.DictReader(f)]
        srs, frrs = np.array(rows).T
        if np.any(np.diff(srs) > 0) or np.any(np.diff(frrs) < 0):
            bad.append("eval-sv: SR increases or FRR decreases along the curve")
        self.counts["eval.trials"] = float(len(target) + len(nontarget) + len(synth))
        self.counts["eval.eer_thresholds"] = float(n_th)
        return bad

    def _check_antispoof(self, out) -> list[str]:
        bad = []
        report = json.loads((out / "report.json").read_text())
        real, synth = [], []
        with open(out / "antispoof_scores.csv", newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                (real if row["source"] == "real" else synth).append(float(row["score"]))
        if (len(real), len(synth)) != (N_WAVS, N_WAVS):
            bad.append(f"eval-antispoof: {len(real)} real / {len(synth)} synthetic scores")
        eer, _, _ = eer_sorted_counts(real, synth)
        if not math.isclose(report["eer"], eer, rel_tol=1e-9, abs_tol=1e-12):
            bad.append(f"eval-antispoof: EER {report['eer']!r}, the score CSV gives {eer!r}")
        if len(self.fits) != 2:
            return bad + [f"eval-antispoof: {len(self.fits)} GMM fits, expected 2"]
        rng = np.random.default_rng([self.seed, 17])
        for features, gmm, history in self.fits:
            h = np.asarray(history)
            if h.size != GMM_ITERS + 1 or np.any(np.diff(h) < -1e-9 * np.abs(h[:-1])):
                bad.append("eval-antispoof: EM log-likelihood decreases")
            if not math.isclose(float(np.sum(gmm.weights)), 1.0, rel_tol=1e-9):
                bad.append(f"eval-antispoof: GMM weights sum to {np.sum(gmm.weights)!r}")
            if not np.all(gmm.variances >= ev.VAR_FLOOR):
                bad.append("eval-antispoof: GMM variance below VAR_FLOOR")
            x = features[rng.choice(features.shape[0], size=LL_SUBSET, replace=False)]
            per_comp = norm.logpdf(
                x[:, None, :], gmm.means[None], np.sqrt(gmm.variances)[None]
            ).sum(axis=2) + np.log(gmm.weights)[None]
            want = logsumexp(per_comp, axis=1)
            if not np.allclose(gmm.log_likelihood(x), want, rtol=1e-9, atol=1e-9):
                bad.append("eval-antispoof: DiagonalGmm.log_likelihood disagrees with scipy")
        self.counts["eval.gmm_frames"] = float(sum(f.shape[0] for f, _, _ in self.fits))
        self.fits.clear()
        return bad

    def final_check(self) -> list[str]:
        return []

    def close(self):
        pass

    def layer_metrics(self, by_kind, med) -> dict[str, float]:
        sv, asp = by_kind["sv"], by_kind["antispoof"]
        total = lambda ops, name: med(ops, lambda s: s["total_ms"].get(name, 0.0))
        m = {
            f"eval.{fn}_ms": total(sv, f"eval.{fn}")
            for fn in ("build_protocol", "score_trials", "compute_eer", "sr_frr_curve", "write_score_csv")
        }
        m["dsp.lfcc_ms"] = total(asp, "dsp.lfcc")
        m["eval.gmm_fit_em_ms"] = total(asp, "eval.gmm_fit_em")
        fits = med(asp, lambda s: s["calls"].get("eval.gmm_fit_em", 0))
        m["eval.gmm_em_iter_ms"] = m["eval.gmm_fit_em_ms"] / (GMM_ITERS * fits) if fits else 0.0
        m["eval.gmm_component_ll_ms"] = total(asp, "eval.DiagonalGmm.component_log_likelihood")
        m["eval.antispoof_score_ms"] = total(asp, "eval.antispoof_score")
        m.update(self.counts)
        return m
