"""Spoofing evaluation engine.

Builds the verification trial protocol (enrollment + target / non-target /
synthetic trials), scores trials by cosine similarity against enrollment
models, calibrates the threshold at the equal error rate, and reports the
spoof rate and the SR-vs-FRR trade-off curve.  Anti-spoofing baselines:
a diagonal-covariance GMM likelihood-ratio classifier over cepstral
features, and the trained critics themselves (whitebox variants).

A trial list is held as parallel columns (`Trials`), from `build_protocol`
or `read_trial_csv` through `score_trials` to the trial and score CSVs,
which are each written as one string, quoted as ``csv.writer`` quotes.

Score convention everywhere: higher = more likely target / real.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ProtocolConfig
from .corpus import EmbeddingStore, Manifest
from .errors import ProtocolError
from .fileio import atomic_write, read_text

VAR_FLOOR = 1e-4


class Trials(NamedTuple):
    """A trial list as parallel columns, one entry per trial.  ``source`` is
    "real" or "synthetic", and every synthetic trial is a target trial."""

    trial_id: list[str]
    claimed_speaker: list[str]
    utterance_id: list[str]
    source: list[str]
    is_target: np.ndarray  # bool


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    frr: float
    far: float
    sr: float


# ---------------------------------------------------------------------------
# protocol construction and scoring
# ---------------------------------------------------------------------------


def build_protocol(
    test_manifest: Manifest,
    synth_manifest: Manifest,
    cfg: ProtocolConfig,
) -> tuple[dict[str, list[str]], Trials]:
    """Enrollment utterances and the full trial list.

    Per test speaker: ``n_enroll`` real utterances are held out for
    enrollment, ``n_target`` real target trials and ``n_synth`` synthetic
    trials are drawn, and every real trial utterance is additionally claimed
    as each other test speaker (non-target trials for EER calibration).
    Trial ids are ``<kind>-<speaker>-<utterance>``; ids that two trials
    would share, which speaker or utterance ids holding "-" can cause,
    raise `ProtocolError`.
    """
    rng = np.random.default_rng(cfg.seed)
    real_by_spk = test_manifest.by_speaker()
    synth_by_spk = synth_manifest.by_speaker()
    speakers = sorted(real_by_spk)
    shortfalls = []
    for spk in speakers:
        need_real = cfg.n_enroll + cfg.n_target
        have_real = len(real_by_spk.get(spk, ()))
        have_synth = len(synth_by_spk.get(spk, ()))
        if have_real < need_real:
            shortfalls.append(f"{spk}: {have_real} real utterances, need {need_real}")
        if have_synth < cfg.n_synth:
            shortfalls.append(f"{spk}: {have_synth} synthetic utterances, need {cfg.n_synth}")
    if shortfalls:
        raise ProtocolError("insufficient utterances: " + "; ".join(shortfalls))

    enrollment: dict[str, list[str]] = {}
    trial_utts: dict[str, list[str]] = {}
    ids, claimed, utterances, sources, targets = [], [], [], [], []

    def add(kind: str, spk: str, utts: list[str], source: str, target: bool) -> None:
        prefix = f"{kind}-{spk}-"
        ids.extend([prefix + u for u in utts])
        claimed.extend([spk] * len(utts))
        utterances.extend(utts)
        sources.extend([source] * len(utts))
        targets.extend([target] * len(utts))

    for spk in speakers:
        utts = sorted(r.utterance_id for r in real_by_spk[spk])
        picked = rng.permutation(utts).tolist()
        enrollment[spk] = sorted(picked[: cfg.n_enroll])
        trial_utts[spk] = sorted(picked[cfg.n_enroll : cfg.n_enroll + cfg.n_target])
        synth_utts = sorted(r.utterance_id for r in synth_by_spk[spk])
        synth_picked = sorted(rng.permutation(synth_utts).tolist()[: cfg.n_synth])
        add("tgt", spk, trial_utts[spk], "real", True)
        add("spf", spk, synth_picked, "synthetic", True)
    for spk in speakers:  # cross-speaker claims over the same trial utterances
        for other in speakers:
            if other != spk:
                add("imp", other, trial_utts[spk], "real", False)
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        repeat = next(t for t in ids if t in seen or seen.add(t))
        raise ProtocolError(
            f"two trials would get the id {repeat!r}: speaker and utterance ids"
            " that hold '-' can make trial ids collide"
        )
    return enrollment, Trials(ids, claimed, utterances, sources, np.array(targets, dtype=bool))


def enroll(embeddings: list[np.ndarray]) -> np.ndarray:
    """Unit-normalized mean of the enrollment embeddings."""
    if not embeddings:
        raise ValueError("enrollment needs at least one embedding")
    mean = np.mean(np.stack(embeddings), axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0:
        raise ValueError("enrollment embeddings cancel out")
    return mean / norm


def _unit_rows(vectors: list[np.ndarray]) -> np.ndarray:
    """(N, D) float64 stack of the vectors, each scaled to unit norm."""
    m = np.array(vectors, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero-norm embedding in scoring")
    return m / norms


def score_trials(
    enrollment_models: dict[str, np.ndarray],
    trials: Trials,
    store: EmbeddingStore,
) -> np.ndarray:
    """Cosine similarity of each trial utterance against the claimed
    speaker's enrollment model.

    One product, in float64: the unit-normalised embeddings of the distinct
    trial utterances times the unit-normalised models of the distinct
    claimed speakers, read out at each trial's (utterance, speaker) pair.
    The protocol claims each real trial utterance as every test speaker, so
    that product holds about as many entries as there are trials.  Equals
    the per-trial cosine similarity to rounding.
    """
    utterance_row = {u: i for i, u in enumerate(dict.fromkeys(trials.utterance_id))}
    absent = {u for u in utterance_row if u not in store}
    if absent:
        missing = [t for t, u in zip(trials.trial_id, trials.utterance_id) if u in absent]
        raise ProtocolError(f"missing embeddings for trials: {', '.join(missing[:10])}"
                            + ("..." if len(missing) > 10 else ""))
    if not utterance_row:
        return np.empty(0)
    speaker_row = {s: i for i, s in enumerate(dict.fromkeys(trials.claimed_speaker))}
    unenrolled = sorted(set(speaker_row) - set(enrollment_models))
    if unenrolled:
        raise ProtocolError(f"no enrollment model for claimed speakers: {unenrolled[:10]}")
    models = _unit_rows([enrollment_models[s] for s in speaker_row])
    embeddings = _unit_rows([store[u].vector for u in utterance_row])
    utt_idx = list(map(utterance_row.__getitem__, trials.utterance_id))
    spk_idx = list(map(speaker_row.__getitem__, trials.claimed_speaker))
    return (embeddings @ models.T)[utt_idx, spk_idx]


# ---------------------------------------------------------------------------
# EER / spoof rate / curves
# ---------------------------------------------------------------------------


def _threshold_grid(scores: np.ndarray) -> np.ndarray:
    """Midpoints of adjacent sorted scores plus -inf/+inf sentinels."""
    s = np.sort(scores)
    mids = np.unique((s[1:] + s[:-1]) / 2.0) if s.size > 1 else np.empty(0)
    return np.concatenate(([-np.inf], mids, [np.inf]))


def _finite(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s


def _rates(thresholds: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares of ``scores`` below and at or above each threshold.

    Counted by binary search in a sorted copy; count / size equals np.mean
    over the comparison bit for bit.
    """
    s = np.sort(scores)
    below = np.searchsorted(s, thresholds, side="left")
    return below / s.size, (s.size - below) / s.size


def compute_eer(
    target_scores, nontarget_scores
) -> tuple[float, float]:
    """(EER, threshold) by linear interpolation where FRR crosses FAR.

    FRR(th) = fraction of targets < th; FAR(th) = fraction of non-targets
    >= th; thresholds sweep the midpoints of adjacent sorted scores.
    Raises ValueError on an empty score set or a non-finite score.
    """
    target = _finite(target_scores)
    nontarget = _finite(nontarget_scores)
    if target.size == 0 or nontarget.size == 0:
        raise ValueError("both score sets must be non-empty")
    thresholds = _threshold_grid(np.concatenate([target, nontarget]))
    frr, _ = _rates(thresholds, target)
    _, far = _rates(thresholds, nontarget)
    diff = frr - far
    i = int(np.argmax(diff >= 0))
    if diff[i] == 0:
        return float(frr[i]), float(thresholds[i])
    f0, f1 = frr[i - 1], frr[i]
    a0, a1 = far[i - 1], far[i]
    s = (a0 - f0) / ((f1 - f0) + (a0 - a1))
    eer = f0 + s * (f1 - f0)
    t0, t1 = thresholds[i - 1], thresholds[i]
    if not np.isfinite(t0):
        t0 = t1
    if not np.isfinite(t1):
        t1 = t0
    return float(eer), float(t0 + s * (t1 - t0))


def spoof_rate(synthetic_scores, threshold: float) -> float:
    """Fraction of synthetic trials accepted at the given threshold."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    s = np.asarray(synthetic_scores, dtype=np.float64)
    return float(np.mean(s >= threshold))


def sr_frr_curve(
    target_scores, synthetic_scores, nontarget_scores=None
) -> list[OperatingPoint]:
    """Operating points over all midpoint thresholds, sorted by threshold.

    SR is non-increasing and FRR non-decreasing along the sweep.  FAR is
    populated when non-target scores are given, else NaN.  Raises
    ValueError on an empty target or synthetic set or a non-finite score.
    """
    target = _finite(target_scores)
    synth = _finite(synthetic_scores)
    if target.size == 0 or synth.size == 0:
        raise ValueError("both score sets must be non-empty")
    thresholds = _threshold_grid(np.concatenate([target, synth]))
    frr, _ = _rates(thresholds, target)
    _, sr = _rates(thresholds, synth)
    if nontarget_scores is None:
        far = np.full(thresholds.size, np.nan)
    else:
        _, far = _rates(thresholds, _finite(nontarget_scores))
    return [
        OperatingPoint(*p)
        for p in zip(thresholds.tolist(), frr.tolist(), far.tolist(), sr.tolist())
    ]


# ---------------------------------------------------------------------------
# GMM-EM anti-spoofing baseline
# ---------------------------------------------------------------------------


@dataclass
class DiagonalGmm:
    """Diagonal-covariance Gaussian mixture, all fields float64."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, D)
    variances: np.ndarray  # (K, D), floored

    def component_log_likelihood(self, x: np.ndarray) -> np.ndarray:
        """(N, K) log p(x | component) + log weight.

        The Mahalanobis term sum_d (x_d - mu_kd)^2 / var_kd is expanded into
        matrix products, ``(x*x) @ P.T - 2 x @ (mu*P).T + sum(mu*mu*P)`` with
        ``P = 1/var``, so no (N, K, D) array is built.  Data and means are
        first centred on the mean of the means: the expansion subtracts
        terms of size x^2/var, and without centring features far from the
        origin lose their digits to that cancellation.  The elementwise
        passes run in place on the first product's output, in the order of
        the expression above.  Far components come out hundreds below each
        row's peak; `_posteriors` floors them at ``_LOG_FLOOR`` before its
        exponential, because below about -708 ``np.exp`` and the M-step's
        matrix products fall onto their slow subnormal paths.
        """
        x = np.atleast_2d(x)
        centre = self.means.mean(axis=0)
        xc = x - centre
        mc = self.means - centre
        prec = 1.0 / self.variances
        out = (xc * xc) @ prec.T
        cross = xc @ (mc * prec).T
        cross *= 2.0
        out -= cross
        out += np.sum(mc * mc * prec, axis=1)
        out += np.sum(np.log(2.0 * np.pi * self.variances), axis=1)
        out *= -0.5
        out += np.log(self.weights)
        return out

    def log_likelihood(self, x: np.ndarray) -> np.ndarray:
        """(N,) per-point log likelihood."""
        return _posteriors(self.component_log_likelihood(x))[0]


# peak-shifted log-likelihoods below this get no responsibility: e^-700 is
# about 1e-304, still normal, and exp of anything below -708.4 is subnormal
_LOG_FLOOR = -700.0


def _posteriors(comp_ll: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N,) log-sum-exp over components and the (N, K) responsibilities,
    from one exponential of the (N, K) log-likelihoods shifted by their
    per-row peak.

    Shifted values below ``_LOG_FLOOR`` are clamped to it before the
    exponential and their responsibilities set to exactly 0.  In an EM fit
    most of them lie below -708; there ``np.exp`` leaves its SIMD path,
    and the subnormal responsibilities it would return slow down the
    M-step's matrix products as well.  The bytes do not change: each row
    holds its peak's term of 1, so its mass is at least 1, and a dropped
    term is below e^-700 relative to that peak, far under half an ulp of
    the mass, so the mass and the log-sum-exp round to the same doubles.
    A kept responsibility is at least e^-700 / K, a normal double for K
    below about 4,400 components.
    """
    peak = comp_ll.max(axis=1, keepdims=True)
    resp = comp_ll - peak
    dropped = resp < _LOG_FLOOR
    np.maximum(resp, _LOG_FLOOR, out=resp)
    np.exp(resp, out=resp)
    resp[dropped] = 0.0
    mass = resp.sum(axis=1, keepdims=True)
    resp /= mass
    return (peak + np.log(mass))[:, 0], resp


def gmm_fit_em(
    features: np.ndarray,
    n_components: int,
    iters: int = 50,
    seed: int = 0,
) -> tuple[DiagonalGmm, list[float]]:
    """Diagonal-covariance EM with seeded point-pick initialization.

    Returns the model and the total log-likelihood before each of the
    ``max(iters, 1)`` iterations and after the last one (non-decreasing
    within numerical tolerance).  Each E-step takes the centred
    matrix-product log-likelihoods of `DiagonalGmm.component_log_likelihood`
    and one exponential, shifted by each point's peak, for both the
    log-sum-exp and the responsibilities; `_posteriors` drops components
    below ``_LOG_FLOOR`` of the peak, which keeps the exponential and the
    M-step's products off their subnormal slow paths without changing the
    fit.  Components that lose all responsibility mass are re-seeded at the
    globally worst-fit point.  Everything is float64.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be (N, D), got {x.shape}")
    n, d = x.shape
    if n_components < 1:
        raise ValueError("need at least one component")
    if n < n_components:
        raise ValueError(f"{n} points cannot support {n_components} components")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=n_components, replace=False)
    global_var = np.maximum(x.var(axis=0), VAR_FLOOR)
    gmm = DiagonalGmm(
        weights=np.full(n_components, 1.0 / n_components),
        means=x[idx].copy(),
        variances=np.tile(global_var, (n_components, 1)),
    )
    x_sq = x * x
    history: list[float] = []
    for _ in range(max(iters, 1)):
        total, resp = _posteriors(gmm.component_log_likelihood(x))  # (N,), (N, K)
        history.append(float(np.sum(total)))
        nk = resp.sum(axis=0)
        degenerate = nk < 1e-10
        if np.any(degenerate):
            worst = int(np.argmin(total))
            for k in np.where(degenerate)[0]:
                gmm.means[k] = x[worst]
                gmm.variances[k] = global_var
                nk[k] = 1.0
            gmm.weights = nk / nk.sum()
            continue
        gmm.weights = nk / n
        gmm.means = (resp.T @ x) / nk[:, None]
        second = (resp.T @ x_sq) / nk[:, None]
        gmm.variances = np.maximum(second - gmm.means**2, VAR_FLOOR)
    history.append(float(np.sum(gmm.log_likelihood(x))))
    return gmm, history


def antispoof_score(
    features: np.ndarray, gmm_real: DiagonalGmm, gmm_synth: DiagonalGmm
) -> float:
    """Mean per-frame log-likelihood ratio (real over synthetic)."""
    if gmm_real.means.shape[1] != gmm_synth.means.shape[1]:
        raise ValueError("anti-spoofing models have mismatched feature dimensions")
    x = np.asarray(features, dtype=np.float64)
    return float(np.mean(gmm_real.log_likelihood(x) - gmm_synth.log_likelihood(x)))


def antispoof_eer(real_scores, synthetic_scores) -> float:
    """EER of the real-vs-synthetic classifier (real is the target class)."""
    eer, _ = compute_eer(real_scores, synthetic_scores)
    return eer


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

SCORE_FIELDS = ("trial_id", "claimed_speaker", "source", "is_target", "score")
CURVE_FIELDS = ("threshold", "SR", "FRR", "FAR")


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in ',"\r\n')


def _quoted(column: list[str]) -> list[str]:
    """``column`` as ``csv.writer`` writes its fields: one that holds a
    comma, a double quote, CR or LF goes in double quotes, its own double
    quotes doubled.  One search over the joined column spares the per-field
    check in a column that needs no quoting."""
    if not _needs_quotes("".join(column)):
        return column
    return ['"' + v.replace('"', '""') + '"' if _needs_quotes(v) else v for v in column]


def _write_rows(path, header: tuple[str, ...], columns) -> None:
    """A CSV of parallel columns of field text, as ``csv.writer`` writes it
    (CRLF line ends), built as one string."""
    lines = map(",".join, zip(*columns))
    with atomic_write(path, newline="") as f:
        f.write("\r\n".join([",".join(header), *lines, ""]))


def write_score_csv(trials: Trials, scores, path) -> None:
    """Scores in trial order; each score is the ``repr`` of a float."""
    quoted = map(_quoted, (trials.trial_id, trials.claimed_speaker, trials.source))
    flags = np.where(trials.is_target, "1", "0").tolist()
    score_text = map(repr, np.asarray(scores, dtype=np.float64).tolist())
    _write_rows(path, SCORE_FIELDS, [*quoted, flags, score_text])


def write_antispoof_csv(real_files, synth_files, real_scores, synth_scores, path) -> None:
    """Rows of path, ``real``/``synthetic`` and score (a float's ``repr``)."""
    files = _quoted([str(p) for p in [*real_files, *synth_files]])
    sources = ["real"] * len(real_files) + ["synthetic"] * len(synth_files)
    scores = [repr(float(s)) for s in [*real_scores, *synth_scores]]
    _write_rows(path, ("file", "source", "score"), [files, sources, scores])


def _csv_reader(path):
    """A ``csv.reader`` over the UTF-8 text of ``path``."""
    return csv.reader(io.StringIO(read_text(path, ProtocolError), newline=""))


def _csv_table(path, reader):
    """The column of each name in a ``csv.reader``'s header, and its
    non-blank rows.  A repeated name, or a row whose field count is not the
    header's, raises `ProtocolError` naming the file and the reader's
    ``line_num``: after each row, that row's last line."""
    header = next(reader, None) or []
    index = {name: i for i, name in enumerate(header)}
    if len(index) < len(header):
        twice = next(name for i, name in enumerate(header) if index[name] != i)
        raise ProtocolError(f"{path}, line {reader.line_num}: header names {twice!r} twice")

    def fits(row):
        if len(row) != len(header):
            counts = f"the header has {len(header)} fields, this row {len(row)}"
            raise ProtocolError(f"{path}, line {reader.line_num}: {counts}")
        return row

    return index, map(fits, filter(None, reader))


def read_score_csv(path) -> dict[str, float]:
    """trial_id -> score.  A row that does not fit the header (see
    `_csv_table`), a repeated trial_id or a score that is not finite raises
    `ProtocolError` naming the file and line."""
    out: dict[str, float] = {}
    reader = _csv_reader(path)
    index, rows = _csv_table(path, reader)
    missing = set(SCORE_FIELDS) - set(index)
    if missing:
        raise ProtocolError(f"{path}: score CSV missing columns {sorted(missing)}")
    i_id, i_score = index["trial_id"], index["score"]
    for row in rows:
        trial_id, text = row[i_id], row[i_score]
        if trial_id in out:
            raise ProtocolError(f"{path}, line {reader.line_num}: repeated trial_id {trial_id!r}")
        try:
            score = float(text)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ProtocolError(
                f"{path}, line {reader.line_num}: score {text!r} is not a finite number"
            )
        out[trial_id] = score
    return out


def write_curve_csv(points: list[OperatingPoint], path) -> None:
    """One row per operating point; each rate is the ``repr`` of a float."""
    columns = zip(*[(p.threshold, p.sr, p.frr, p.far) for p in points])
    _write_rows(path, CURVE_FIELDS, [map(repr, c) for c in columns])


TRIAL_FIELDS = ("trial_id", "claimed_speaker", "utterance_id", "source", "is_target")


def write_trial_csv(trials: Trials, path) -> None:
    """Trial list without scores; external systems fill in the score column."""
    flags = np.where(trials.is_target, "1", "0").tolist()
    _write_rows(path, TRIAL_FIELDS, [*map(_quoted, trials[:4]), flags])


def read_trial_csv(path) -> Trials:
    """Trials in file order.  A missing column, a repeated trial_id, an
    is_target other than 0/1, a source other than real/synthetic or a
    synthetic trial that is not a target raises `ProtocolError` naming the
    file and line."""
    columns: list[list] = [[] for _ in TRIAL_FIELDS]
    seen: set[str] = set()
    reader = _csv_reader(path)
    index, rows = _csv_table(path, reader)
    missing = set(TRIAL_FIELDS) - set(index)
    if missing:
        raise ProtocolError(
            f"{path}, line {reader.line_num}: trial CSV missing columns {sorted(missing)}"
        )
    i_id, i_source, i_flag = index["trial_id"], index["source"], index["is_target"]
    fields = [(column, index[name]) for column, name in zip(columns, TRIAL_FIELDS[:4])]
    for row in rows:
        trial_id, source, flag = row[i_id], row[i_source], row[i_flag]
        if trial_id in seen:
            raise ProtocolError(f"{path}, line {reader.line_num}: repeated trial_id {trial_id!r}")
        if flag not in ("0", "1"):
            raise ProtocolError(f"{path}, line {reader.line_num}: is_target {flag!r} is not 0 or 1")
        if source not in ("real", "synthetic"):
            raise ProtocolError(f"{path}, line {reader.line_num}: bad trial source {source!r}")
        if source == "synthetic" and flag == "0":
            raise ProtocolError(
                f"{path}, line {reader.line_num}: "
                "synthetic trials always claim their target identity"
            )
        seen.add(trial_id)
        for column, i in fields:
            column.append(row[i])
        columns[4].append(flag == "1")
    return Trials(*columns[:4], np.array(columns[4], dtype=bool))
