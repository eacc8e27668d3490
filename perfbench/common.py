"""Helpers shared by the workloads: corpus set-up, statistics and checks."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from melforge import corpus, fixture, train
from melforge.config import RunConfig
from melforge.corpus import EmbeddingStore


def prepared_fixture(work: Path, seed: int) -> tuple[RunConfig, list, EmbeddingStore]:
    """Bundled fixture corpus written for ``seed``, prepared with the 'all'
    split as `melforge prepare` does it, and loaded as training samples,
    with its embedding store."""
    root = fixture.write_fixture_corpus(work / "corpus", seed=seed)
    manifest = corpus.build_manifest(root)
    cfg = RunConfig()
    train_man, _ = corpus.make_split(manifest, corpus.SplitScheme.named("all", seed))
    ref_lin, ref_mel = corpus.corpus_reference_levels(train_man, cfg.dsp)
    cfg = replace(cfg, dsp=cfg.dsp.with_refs(ref_lin, ref_mel))
    feats = corpus.precompute_features(train_man, cfg.dsp, work / "features")
    store = corpus.load_embeddings(root / "embeddings.mfem")
    return cfg, train.load_training_samples(feats, store), store


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, and its
    nearest-rank value; None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)
    return p, float(sorted(values)[rank - 1])


def eer_sorted_counts(target, nontarget) -> tuple[float, float, int]:
    """EER, threshold and threshold count by sorted cumulative counts.

    Same definition as the program's: thresholds are -inf, the unique
    midpoints of adjacent sorted pooled scores, and +inf; FRR(th) is the
    share of targets below th, FAR(th) the share of non-targets at or above
    th; the EER is interpolated linearly at the first threshold where
    FRR >= FAR.
    """
    t = np.sort(np.asarray(target, dtype=np.float64))
    n = np.sort(np.asarray(nontarget, dtype=np.float64))
    pooled = np.sort(np.concatenate([t, n]))
    mids = np.unique((pooled[1:] + pooled[:-1]) / 2.0)
    th = np.concatenate(([-np.inf], mids, [np.inf]))
    frr = np.searchsorted(t, th, side="left") / t.size
    far = (n.size - np.searchsorted(n, th, side="left")) / n.size
    diff = frr - far
    i = int(np.argmax(diff >= 0))
    if diff[i] == 0:
        return float(frr[i]), float(th[i]), th.size
    f0, f1, a0, a1 = frr[i - 1], frr[i], far[i - 1], far[i]
    s = (a0 - f0) / ((f1 - f0) + (a0 - a1))
    t0, t1 = th[i - 1], th[i]
    if not np.isfinite(t0):
        t0 = t1
    if not np.isfinite(t1):
        t1 = t0
    return float(f0 + s * (f1 - f0)), float(t0 + s * (t1 - t0)), th.size

