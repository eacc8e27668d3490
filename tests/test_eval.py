"""Evaluation protocol, EER machinery against the exhaustive oracle, curve
monotonicity, GMM-EM behavior and the CSV interfaces."""

import re

import numpy as np
import pytest

from melforge import cli, corpus
from melforge import eval as ev
from melforge.config import ProtocolConfig
from melforge.corpus import EmbeddingStore, Manifest, ManifestRecord
from melforge.errors import ProtocolError
from scipy.special import logsumexp
from scipy.stats import norm

from oracles import (
    broadcast_gmm_component_ll,
    brute_force_eer,
    cosine_score,
    csv_writer_score_csv,
    csv_writer_trial_csv,
    sweep_sr_frr_far,
)


def _manifest(speakers, utts, prefix=""):
    records = []
    for s in range(speakers):
        spk = f"spk{s}"
        for u in range(utts):
            uid = f"{prefix}{spk}_u{u}"
            records.append(ManifestRecord(uid, spk, f"{uid}.wav", "text"))
    return Manifest(tuple(records))


def _trials(*rows):
    """`ev.Trials` from (trial_id, claimed_speaker, utterance_id, source,
    is_target) rows."""
    ids, claimed, utts, sources, targets = (list(c) for c in zip(*rows)) if rows else ([],) * 5
    return ev.Trials(ids, claimed, utts, sources, np.array(targets, dtype=bool))


def _assert_same_trials(got, want):
    assert got[:4] == want[:4]
    assert got.is_target.dtype == bool
    np.testing.assert_array_equal(got.is_target, want.is_target)


def test_build_protocol_counts_and_exclusion():
    cfg = ProtocolConfig(n_enroll=3, n_target=20, n_synth=20, seed=0)
    test_man = _manifest(4, 30)
    synth_man = _manifest(4, 25, prefix="syn-")
    enrollment, trials = ev.build_protocol(test_man, synth_man, cfg)
    real = np.array(trials.source) == "real"
    target = real & trials.is_target
    synth = np.array(trials.source) == "synthetic"
    nontarget = ~trials.is_target
    assert len({len(c) for c in trials}) == 1
    assert target.sum() == 4 * 20
    assert synth.sum() == 4 * 20
    assert nontarget.sum() == 4 * 20 * 3  # each trial utt claimed as 3 others
    enrolled = {u for utts in enrollment.values() for u in utts}
    assert all(u not in enrolled for u in trials.utterance_id)
    # determinism
    e2, t2 = ev.build_protocol(test_man, synth_man, cfg)
    assert e2 == enrollment
    _assert_same_trials(t2, trials)


def _colliding_manifests():
    """Speakers "a" (utterances "b-u<i>") and "a-b" (utterances "u<i>"):
    with 2 of 3 utterances drawn per speaker, both draw some index i, and
    "tgt-a-b-u<i>" names a trial of each."""
    real = [ManifestRecord(f"b-u{i}", "a", f"a{i}.wav", "x") for i in range(3)]
    real += [ManifestRecord(f"u{i}", "a-b", f"ab{i}.wav", "x") for i in range(3)]
    synth = [ManifestRecord(f"s-{r.utterance_id}", r.speaker_id, "s.wav", "x") for r in real]
    return Manifest(tuple(real)), Manifest(tuple(synth))


def test_build_protocol_refuses_colliding_trial_ids(tmp_path, capsys):
    """eval-sv exits 5 naming the id two trials would share, and writes no
    trials.csv; it used to write one that its next run refused."""
    test_man, synth_man = _colliding_manifests()
    cfg = ProtocolConfig(n_enroll=1, n_target=2, n_synth=2, seed=0)
    with pytest.raises(ProtocolError, match=r"'tgt-a-b-u\d'"):
        ev.build_protocol(test_man, synth_man, cfg)
    store = EmbeddingStore(4)
    for r in (*test_man.records, *synth_man.records):
        store.add(r.utterance_id, np.arange(1.0, 5.0))
    corpus.save_manifest(test_man, tmp_path / "test.jsonl")
    corpus.save_manifest(synth_man, tmp_path / "synth.jsonl")
    corpus.save_embeddings(store, tmp_path / "emb.mfem")
    config = tmp_path / "cfg.json"
    config.write_text('{"protocol": {"n_enroll": 1, "n_target": 2, "n_synth": 2}}')
    capsys.readouterr()
    code = cli.main([
        "eval-sv", "--protocol-dir", str(tmp_path / "proto"),
        "--test-manifest", str(tmp_path / "test.jsonl"),
        "--synth-manifest", str(tmp_path / "synth.jsonl"),
        "--embeddings", str(tmp_path / "emb.mfem"), "--config", str(config),
    ])
    assert code == ProtocolError.exit_code == 5
    assert re.search(r"two trials would get the id 'tgt-a-b-u\d'", capsys.readouterr().err)
    assert not (tmp_path / "proto" / "trials.csv").exists()


def test_build_protocol_shortfall_error():
    cfg = ProtocolConfig(n_enroll=3, n_target=20, n_synth=20)
    with pytest.raises(ProtocolError, match="spk0"):
        ev.build_protocol(_manifest(2, 10), _manifest(2, 25, "s-"), cfg)


def test_enroll():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(ev.enroll([e1, e1, e1]), e1)
    np.testing.assert_allclose(ev.enroll([e1, e2]), np.array([1, 1, 0]) / np.sqrt(2))
    assert np.linalg.norm(ev.enroll([e1, e2])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ev.enroll([])


def test_score_trials_cosine(rng):
    store = EmbeddingStore(4)
    a = np.array([1.0, 0, 0, 0])
    b = np.array([0, 1.0, 0, 0])
    store.add("u1", a)
    store.add("u2", b)
    trials = _trials(("t1", "spk", "u1", "real", True), ("t2", "spk", "u2", "real", False))
    scores = ev.score_trials({"spk": a}, trials, store)
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(0.0, abs=1e-7)
    # naive oracle on random pairs
    for _ in range(20):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        expect = float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))
        assert abs(cosine_score(x, y) - expect) <= 1e-6
    with pytest.raises(ProtocolError, match="t3"):
        ev.score_trials({"spk": a}, _trials(("t3", "spk", "zz", "real", True)), store)


def test_score_trials_equals_per_trial_cosine_loop(rng):
    cfg = ProtocolConfig(n_enroll=3, n_target=6, n_synth=4, seed=2)
    test_man, synth_man = _manifest(5, 12), _manifest(5, 6, prefix="syn-")
    enrollment, trials = ev.build_protocol(test_man, synth_man, cfg)
    store = EmbeddingStore(16)
    for r in (*test_man.records, *synth_man.records):
        store.add(r.utterance_id, rng.standard_normal(16))
    models = {s: ev.enroll([store[u].vector for u in utts]) for s, utts in enrollment.items()}
    scores = ev.score_trials(models, trials, store)
    loop = [
        cosine_score(models[s], store[u].vector)
        for s, u in zip(trials.claimed_speaker, trials.utterance_id)
    ]
    assert scores.shape == (len(trials.trial_id),) and scores.dtype == np.float64
    np.testing.assert_allclose(scores, loop, rtol=0, atol=1e-12)
    assert ev.score_trials(models, _trials(), store).shape == (0,)
    with pytest.raises(ValueError, match="zero-norm"):
        ev.score_trials({**models, "spk0": np.zeros(16)}, trials, store)
    with pytest.raises(ProtocolError, match="spk0"):
        ev.score_trials({s: m for s, m in models.items() if s != "spk0"}, trials, store)


def test_compute_eer_examples():
    eer, th = ev.compute_eer([0.9, 0.8], [0.1, 0.2])
    assert eer == 0.0
    eer, th = ev.compute_eer([0.9, 0.7, 0.4], [0.5, 0.2, 0.1])
    assert eer == pytest.approx(1 / 3, abs=1e-9)
    assert th == pytest.approx(0.45, abs=1e-9)
    with pytest.raises(ValueError):
        ev.compute_eer([], [0.1])


def test_compute_eer_matches_brute_force(rng):
    for _ in range(250):
        t = rng.standard_normal(int(rng.integers(2, 30))) + rng.uniform(0, 2)
        n = rng.standard_normal(int(rng.integers(2, 30)))
        eer, th = ev.compute_eer(t, n)
        ref_eer, ref_th = brute_force_eer(t, n)
        assert eer == ref_eer
        assert th == ref_th


def test_eer_swap_symmetry(rng):
    t = rng.standard_normal(21)
    n = rng.standard_normal(17) - 0.4
    e1, _ = ev.compute_eer(t, n)
    e2, _ = ev.compute_eer(-np.asarray(n), -np.asarray(t))
    assert e1 == pytest.approx(e2, abs=1e-12)


def test_spoof_rate():
    assert ev.spoof_rate([0.8, 0.6, 0.2], 0.5) == pytest.approx(2 / 3)
    assert ev.spoof_rate([0.1, 0.2], 5.0) == 0.0
    assert ev.spoof_rate([0.1, 0.2], -5.0) == 1.0
    with pytest.raises(ValueError):
        ev.spoof_rate([0.1], np.inf)


def test_spoof_rate_is_survival_of_cdf(rng):
    scores = rng.standard_normal(50)
    eer, th = ev.compute_eer(rng.standard_normal(40) + 1, rng.standard_normal(40))
    cdf = np.mean(scores < th)
    assert ev.spoof_rate(scores, th) == pytest.approx(1 - cdf)


def test_sr_frr_curve_monotone_and_endpoints(rng):
    target = rng.standard_normal(30) + 1
    synth = rng.standard_normal(25)
    pts = ev.sr_frr_curve(target, synth)
    assert (pts[0].sr, pts[0].frr) == (1.0, 0.0)
    assert (pts[-1].sr, pts[-1].frr) == (0.0, 1.0)
    srs = [p.sr for p in pts]
    frrs = [p.frr for p in pts]
    assert all(srs[i + 1] <= srs[i] for i in range(len(srs) - 1))
    assert all(frrs[i + 1] >= frrs[i] for i in range(len(frrs) - 1))


@pytest.mark.parametrize("with_nontarget", [False, True])
def test_sr_frr_curve_equals_per_threshold_sweep(with_nontarget, rng):
    # scores rounded to a coarse grid, so ties fall within and across sets
    target = np.round(rng.standard_normal(60) + 1, 1)
    synth = np.round(rng.standard_normal(45), 1)
    nontarget = np.round(rng.standard_normal(80) - 1, 1) if with_nontarget else None
    pts = ev.sr_frr_curve(target, synth, nontarget)
    want = sweep_sr_frr_far(target, synth, nontarget)
    got = [(p.threshold, p.sr, p.frr, p.far) for p in pts]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3]
        assert g[3] == w[3] or (np.isnan(g[3]) and np.isnan(w[3]))
    assert np.isnan(got[0][3]) != with_nontarget


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eer_and_curve_reject_nonfinite_scores(bad, rng):
    good = rng.standard_normal(10)
    with_bad = np.append(rng.standard_normal(10), bad)
    with pytest.raises(ValueError, match="finite"):
        ev.compute_eer(with_bad, good)
    with pytest.raises(ValueError, match="finite"):
        ev.compute_eer(good, with_bad)
    with pytest.raises(ValueError, match="finite"):
        ev.sr_frr_curve(with_bad, good)
    with pytest.raises(ValueError, match="finite"):
        ev.sr_frr_curve(good, with_bad)
    with pytest.raises(ValueError, match="finite"):
        ev.sr_frr_curve(good, good, with_bad)


def test_sr_frr_identical_distributions(rng):
    scores = rng.standard_normal(40)
    pts = ev.sr_frr_curve(scores, scores.copy())
    assert all(abs(p.sr - (1 - p.frr)) <= 1e-12 for p in pts)


def test_gmm_single_component_closed_form(rng):
    x = rng.standard_normal((200, 3)) * 1.5 + 2.0
    gmm, hist = ev.gmm_fit_em(x, 1, iters=4, seed=0)
    np.testing.assert_allclose(gmm.means[0], x.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(gmm.variances[0], x.var(axis=0), atol=1e-9)


def test_gmm_two_cluster_recovery_and_monotone(rng):
    a = rng.standard_normal((250, 2)) * 0.25 + np.array([1.5, -1.0])
    b = rng.standard_normal((250, 2)) * 0.25 + np.array([-1.5, 1.0])
    gmm, hist = ev.gmm_fit_em(np.vstack([a, b]), 2, iters=40, seed=1)
    assert all(hist[i + 1] >= hist[i] - 1e-6 for i in range(len(hist) - 1))
    means = gmm.means[np.argsort(gmm.means[:, 0])]
    np.testing.assert_allclose(means, [[-1.5, 1.0], [1.5, -1.0]], atol=0.1)


def test_gmm_argument_validation(rng):
    with pytest.raises(ValueError):
        ev.gmm_fit_em(rng.standard_normal((3, 2)), 5)
    with pytest.raises(ValueError):
        ev.gmm_fit_em(rng.standard_normal((3, 2)), 0)


def test_gmm_degenerate_reseed(rng):
    """A far outlier component with no mass gets re-seeded and fitting
    still produces a usable model."""
    x = _far_outlier_set(rng)
    gmm, hist = ev.gmm_fit_em(x, 3, iters=25, seed=0)
    assert np.all(np.isfinite(gmm.means))
    assert np.all(gmm.weights > 0)


def _far_outlier_set(rng):
    return np.vstack([rng.standard_normal((50, 2)), [[500.0, 500.0]]])


def _assert_matches_broadcast(gmm, x):
    want = broadcast_gmm_component_ll(x, gmm.weights, gmm.means, gmm.variances)
    np.testing.assert_allclose(gmm.component_log_likelihood(x), want, rtol=1e-9, atol=0)


def test_gmm_component_ll_matches_broadcast_random(rng):
    x = rng.standard_normal((400, 12)) * 2.0
    gmm = ev.DiagonalGmm(
        weights=rng.dirichlet(np.ones(8)),
        means=rng.standard_normal((8, 12)) * 2.0,
        variances=rng.uniform(0.2, 5.0, (8, 12)),
    )
    _assert_matches_broadcast(gmm, x)


def test_gmm_component_ll_matches_broadcast_far_offset_with_floored_variances(rng):
    """Features near +1e3 with some variances at VAR_FLOOR: the matrix
    expansion needs its centring to keep 1e-9 here."""
    x = rng.standard_normal((400, 12)) * 3.0 + 1e3
    variances = rng.uniform(0.5, 4.0, (16, 12))
    variances[rng.random((16, 12)) < 0.1] = ev.VAR_FLOOR
    gmm = ev.DiagonalGmm(
        weights=rng.dirichlet(np.ones(16)),
        means=x[rng.choice(400, 16, replace=False)] + 0.1 * rng.standard_normal((16, 12)),
        variances=variances,
    )
    _assert_matches_broadcast(gmm, x)


def test_gmm_component_ll_matches_broadcast_far_outlier(rng):
    x = _far_outlier_set(rng)
    gmm, _ = ev.gmm_fit_em(x, 3, iters=25, seed=0)
    _assert_matches_broadcast(gmm, x)


def test_gmm_fit_at_antispoof_size_monotone_and_matches_scipy():
    """K = 64, 20 iterations on 3,072 x 60 frames, as eval-antispoof fits."""
    rng = np.random.default_rng(7)
    centres = rng.standard_normal((24, 60)) * 4.0
    x = centres[rng.integers(24, size=3072)] + rng.standard_normal((3072, 60))
    gmm, hist = ev.gmm_fit_em(x, 64, iters=20, seed=3)
    h = np.asarray(hist)
    assert h.size == 21
    assert np.all(np.diff(h) >= -1e-9 * np.abs(h[:-1]))
    assert np.sum(gmm.weights) == pytest.approx(1.0, rel=1e-12)
    assert np.all(gmm.variances >= ev.VAR_FLOOR)
    for field in (gmm.weights, gmm.means, gmm.variances):
        assert field.dtype == np.float64
    sub = x[rng.choice(x.shape[0], size=64, replace=False)]
    per_comp = norm.logpdf(sub[:, None, :], gmm.means[None], np.sqrt(gmm.variances)[None])
    want = logsumexp(per_comp.sum(axis=2) + np.log(gmm.weights)[None], axis=1)
    np.testing.assert_allclose(gmm.log_likelihood(sub), want, rtol=1e-9, atol=1e-9)


def test_antispoof_score_properties(rng):
    x = rng.standard_normal((300, 2))
    gmm, _ = ev.gmm_fit_em(x, 2, iters=10, seed=0)
    assert ev.antispoof_score(x, gmm, gmm) == 0.0
    shifted, _ = ev.gmm_fit_em(x + 4.0, 2, iters=10, seed=0)
    # samples from the "real" model score positive on average
    scores = [ev.antispoof_score(rng.standard_normal((30, 2)), gmm, shifted) for _ in range(10)]
    assert np.mean(scores) > 0
    # frame-count invariance: duplicating frames leaves the mean unchanged
    f = rng.standard_normal((20, 2))
    assert ev.antispoof_score(np.vstack([f, f]), gmm, shifted) == pytest.approx(
        ev.antispoof_score(f, gmm, shifted)
    )


def test_antispoof_eer(rng):
    real = list(rng.standard_normal(40) + 3)
    synth = list(rng.standard_normal(40) - 3)
    assert ev.antispoof_eer(real, synth) == 0.0
    same = rng.standard_normal(400)
    eer = ev.antispoof_eer(same, rng.standard_normal(400))
    assert abs(eer - 0.5) < 0.1
    # shares the verification EER implementation exactly
    t, n = rng.standard_normal(9), rng.standard_normal(11)
    assert ev.antispoof_eer(t, n) == ev.compute_eer(t, n)[0]


def test_csv_roundtrips(tmp_path, rng):
    trials = _trials(("t1", "a", "u1", "real", True), ("t2", "b", "u2", "synthetic", True))
    scores = [0.25, -1.5]
    ev.write_score_csv(trials, scores, tmp_path / "s.csv")
    back = ev.read_score_csv(tmp_path / "s.csv")
    assert back == {"t1": 0.25, "t2": -1.5}
    ev.write_trial_csv(trials, tmp_path / "t.csv")
    _assert_same_trials(ev.read_trial_csv(tmp_path / "t.csv"), trials)
    pts = ev.sr_frr_curve(rng.standard_normal(5), rng.standard_normal(5), rng.standard_normal(5))
    ev.write_curve_csv(pts, tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert lines[0] == "threshold,SR,FRR,FAR"
    assert len(lines) == len(pts) + 1


@pytest.mark.parametrize(
    "rows, message",
    [
        (["t1,a,real,1,0.5", "t2,b,real,0,nan"], "line 3: score 'nan' is not a finite"),
        (["t1,a,real,1,0.5", "t2,b,real,0,-inf"], "score '-inf' is not a finite"),
        (["t1,a,real,1,0.5", "t1,a,real,1,0.25"], "line 3: repeated trial_id 't1'"),
        (["t1,a,real,1,high"], "score 'high' is not a finite"),
    ],
)
def test_read_score_csv_rejects_bad_rows(rows, message, tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("\n".join([",".join(ev.SCORE_FIELDS), *rows]) + "\n")
    with pytest.raises(ProtocolError, match=message):
        ev.read_score_csv(path)


def test_csv_writers_equal_csv_writer_and_read_back(tmp_path, rng):
    """Ids and speakers holding a comma, a double quote, CR and LF are
    quoted as csv.writer quotes them, beside the unquoted columns of a
    built protocol, and read back unchanged."""
    cfg = ProtocolConfig(n_enroll=2, n_target=4, n_synth=3, seed=1)
    _, built = ev.build_protocol(_manifest(3, 8), _manifest(3, 4, prefix="syn-"), cfg)
    odd = _trials(
        ("a,b", "spk,0", "u,0", "real", True),
        ('say "hi"', 'the "spk"', 'u"1', "real", False),
        ("cr\rid", "spk\r", "u\r2", "synthetic", True),
        ("lf\nid", "spk\n", "u\n3", "real", False),
    )
    for name, trials in (("built", built), ("odd", odd), ("empty", _trials())):
        scores = rng.standard_normal(len(trials.trial_id)) * 1e3
        ev.write_trial_csv(trials, tmp_path / f"{name}_t.csv")
        csv_writer_trial_csv(trials, tmp_path / f"{name}_t_oracle.csv")
        ev.write_score_csv(trials, scores, tmp_path / f"{name}_s.csv")
        csv_writer_score_csv(trials, scores, tmp_path / f"{name}_s_oracle.csv")
        for kind in ("t", "s"):
            got = (tmp_path / f"{name}_{kind}.csv").read_bytes()
            assert got == (tmp_path / f"{name}_{kind}_oracle.csv").read_bytes(), (name, kind)
        _assert_same_trials(ev.read_trial_csv(tmp_path / f"{name}_t.csv"), trials)
        assert ev.read_score_csv(tmp_path / f"{name}_s.csv") == dict(
            zip(trials.trial_id, scores.tolist())
        )
    assert b'"a,b","spk,0","u,0",real,1\r\n' in (tmp_path / "odd_t.csv").read_bytes()


@pytest.mark.parametrize(
    "row, message",
    [
        ("t2,b,u2,recorded,1", "bad trial source 'recorded'"),
        ("t2,b,u2,synthetic,0", "synthetic trials always claim their target identity"),
    ],
    ids=["bad_source", "synthetic_nontarget"],
)
def test_read_trial_csv_refuses_row_exit_5(row, message, tmp_path, capsys):
    """The two trial checks, named by file and line, end eval-sv with 5."""
    trials = tmp_path / "trials.csv"
    trials.write_text(",".join(ev.TRIAL_FIELDS) + "\nt1,a,u1,real,1\n" + row + "\n")
    (tmp_path / "enrollment.json").write_text('{"a": ["u0"]}')
    with pytest.raises(ProtocolError, match=f"line 3: {message}"):
        ev.read_trial_csv(trials)
    capsys.readouterr()
    argv = ["eval-sv", "--protocol-dir", str(tmp_path), "--scores", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 5
    assert f"{trials}, line 3: {message}" in capsys.readouterr().err
