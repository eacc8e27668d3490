"""Manifest construction, split schemes, feature caching and the embedding
store format."""

import json

import numpy as np
import pytest

from melforge import corpus, dsp, fixture
from melforge.config import feature_hash
from melforge.corpus import EmbeddingStore, Manifest, ManifestRecord, SplitScheme
from melforge.errors import CorpusError, FormatError


def _fake_manifest(n_speakers, utts_per_speaker=3):
    records = []
    for s in range(n_speakers):
        spk = f"p{s:03d}"
        for u in range(utts_per_speaker):
            records.append(
                ManifestRecord(
                    utterance_id=f"{spk}_{u}",
                    speaker_id=spk,
                    wav=f"{spk}/{u}.wav",
                    text="hello",
                )
            )
    return Manifest(tuple(records))


def test_build_manifest(toy_corpus):
    man = corpus.build_manifest(toy_corpus)
    assert len(man) == 20
    assert man.speakers() == ["spk0", "spk1"]
    texts = {r.text for r in man.records}
    assert all(t == t.lower() for t in texts)


def test_build_manifest_skips_missing_transcripts(toy_corpus, tmp_path, caplog):
    root = tmp_path / "corp"
    (root / "spkx").mkdir(parents=True)
    src = next((toy_corpus / "spk0").glob("*.wav"))
    for i in range(3):
        (root / "spkx" / f"u{i}.wav").write_bytes(src.read_bytes())
        if i < 2:
            (root / "spkx" / f"u{i}.txt").write_text("some text")
    man = corpus.build_manifest(root)
    assert len(man) == 2  # the third lacks a transcript and is skipped


def test_build_manifest_errors(tmp_path, toy_corpus):
    with pytest.raises(CorpusError):
        corpus.build_manifest(tmp_path / "missing")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CorpusError):
        corpus.build_manifest(empty)
    # duplicate utterance ids across speakers
    dup = tmp_path / "dup"
    src = next((toy_corpus / "spk0").glob("*.wav"))
    for spk in ("a", "b"):
        (dup / spk).mkdir(parents=True)
        (dup / spk / "same.wav").write_bytes(src.read_bytes())
        (dup / spk / "same.txt").write_text("text")
    with pytest.raises(CorpusError, match="duplicate"):
        corpus.build_manifest(dup)


_GOOD_LINE = {"utterance_id": "u1", "speaker_id": "s1", "wav": "a.wav", "text": "hi"}


@pytest.mark.parametrize(
    "line, expected",
    [
        ([1, 2], "not a JSON object"),
        ("u1", "not a JSON object"),
        ({**_GOOD_LINE, "utterance_id": 7}, "'utterance_id' not a string"),
        ({**_GOOD_LINE, "speaker_id": None}, "'speaker_id' not a string"),
        ({**_GOOD_LINE, "wav": ["a.wav"]}, "'wav' not a string"),
        ({**_GOOD_LINE, "text": 3.5}, "'text' not a string"),
        ({k: v for k, v in _GOOD_LINE.items() if k != "wav"}, "'wav' missing"),
        ({**_GOOD_LINE, "features": 5}, "'features' is not an object of strings"),
        ({**_GOOD_LINE, "features": {"mel": 5}}, "'features' is not an object of strings"),
    ],
    ids=["list", "string", "id_int", "speaker_null", "wav_list", "text_float",
         "wav_missing", "features_int", "features_value_int"],
)
def test_load_manifest_refuses_ill_shaped_lines(line, expected, tmp_path):
    """A line of the wrong shape is a FormatError naming the file and line,
    where it used to surface later as a TypeError or AttributeError."""
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(_GOOD_LINE) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(FormatError, match=f"m.jsonl:2: bad manifest line") as err:
        corpus.load_manifest(path)
    assert expected in str(err.value)
    path.write_text(json.dumps({**_GOOD_LINE, "features": {"mel": "m.npy"}}) + "\n")
    (rec,) = corpus.load_manifest(path).records
    assert rec == ManifestRecord("u1", "s1", "a.wav", "hi", {"mel": "m.npy"})


def test_split_scheme_counts():
    man = _fake_manifest(108)
    for name, (n_train, n_test) in (("s1", (42, 66)), ("s2", (60, 48)), ("s3", (88, 20))):
        train, test = corpus.make_split(man, SplitScheme.named(name, seed=7))
        assert len(train.speakers()) == n_train
        assert len(test.speakers()) == n_test
        assert not set(train.speakers()) & set(test.speakers())


def test_split_determinism_and_insufficient():
    man = _fake_manifest(108)
    a = corpus.make_split(man, SplitScheme.named("s3", seed=5))
    b = corpus.make_split(man, SplitScheme.named("s3", seed=5))
    assert a[0].speakers() == b[0].speakers()
    c = corpus.make_split(man, SplitScheme.named("s3", seed=6))
    assert a[0].speakers() != c[0].speakers()
    with pytest.raises(CorpusError):
        corpus.make_split(_fake_manifest(10), SplitScheme.named("s3"))
    with pytest.raises(CorpusError):
        SplitScheme.named("s9")


def test_all_scheme_for_tiny_corpora():
    man = _fake_manifest(2)
    train, test = corpus.make_split(man, SplitScheme.named("all"))
    assert train.speakers() == test.speakers() == man.speakers()


def test_precompute_features_idempotent(toy_corpus, tmp_path):
    man = corpus.build_manifest(toy_corpus)
    small = Manifest(man.records[:3])
    fcfg = dsp.FeatureConfig(ref_lin=100.0, ref_mel=200.0)
    out = tmp_path / "feat"
    m1 = corpus.precompute_features(small, fcfg, out)
    blobs = {p.name: p.read_bytes() for p in out.glob("*.mfrg")}
    m2 = corpus.precompute_features(small, fcfg, out)
    for p in out.glob("*.mfrg"):
        assert p.read_bytes() == blobs[p.name]  # byte-identical on rerun
    # config change invalidates caches
    fcfg2 = dsp.FeatureConfig(ref_lin=50.0, ref_mel=200.0)
    corpus.precompute_features(small, fcfg2, out)
    changed = any(p.read_bytes() != blobs[p.name] for p in out.glob("*.lin.mfrg"))
    assert changed
    meta = json.loads((out / "features.json").read_text())
    from melforge.config import feature_hash

    assert meta["hash"] == feature_hash(fcfg2)


@pytest.mark.parametrize(
    "marker", [b"[1]", b"\xff\xfe{not utf-8", b'{"hash": 5'], ids=["list", "not_utf8", "bad_json"]
)
def test_precompute_features_rebuilds_behind_unreadable_marker(marker, toy_corpus, tmp_path):
    """A features.json that is not a JSON object (or not UTF-8, or not
    JSON) marks the caches stale: they are rebuilt and the marker
    rewritten, where a list used to raise AttributeError."""
    small = Manifest(corpus.build_manifest(toy_corpus).records[:2])
    fcfg = dsp.FeatureConfig(ref_lin=100.0, ref_mel=200.0)
    out = tmp_path / "feat"
    corpus.precompute_features(small, fcfg, out)
    blobs = {p.name: p.read_bytes() for p in out.glob("*.mfrg")}
    victim = sorted(out.glob("*.mfrg"))[0]
    victim.write_bytes(b"not the cache")
    (out / "features.json").write_bytes(marker)
    corpus.precompute_features(small, fcfg, out)
    assert {p.name: p.read_bytes() for p in out.glob("*.mfrg")} == blobs
    assert json.loads((out / "features.json").read_text())["hash"] == feature_hash(fcfg)


def test_cached_features_match_fresh(toy_corpus, tmp_path):
    man = corpus.build_manifest(toy_corpus)
    small = Manifest(man.records[:2])
    fcfg = dsp.FeatureConfig(ref_lin=100.0, ref_mel=200.0)
    m = corpus.precompute_features(small, fcfg, tmp_path / "f")
    for r in m.records:
        wave = dsp.read_wav(r.wav)
        for kind, grid in dsp.wave_to_features(wave, fcfg).items():
            np.testing.assert_allclose(
                dsp.read_feature_cache(r.features[kind]), grid, atol=1e-6
            )


def test_precompute_parallel_matches_serial(toy_corpus, tmp_path):
    man = corpus.build_manifest(toy_corpus)
    small = Manifest(man.records[:4])
    fcfg = dsp.FeatureConfig(ref_lin=100.0, ref_mel=200.0)
    corpus.precompute_features(small, fcfg, tmp_path / "serial", jobs=1)
    corpus.precompute_features(small, fcfg, tmp_path / "par", jobs=4)
    for p in sorted((tmp_path / "serial").glob("*.mfrg")):
        assert p.read_bytes() == (tmp_path / "par" / p.name).read_bytes()


def test_embedding_store_roundtrip(tmp_path, rng):
    store = EmbeddingStore(8)
    store.add("a", rng.standard_normal(8) * 2.0)  # normalized on add
    store.add("b", rng.standard_normal(8))
    assert np.linalg.norm(store["a"].vector) == pytest.approx(1.0, abs=1e-5)
    p = tmp_path / "emb.mfem"
    corpus.save_embeddings(store, p)
    back = corpus.load_embeddings(p)
    assert len(back) == 2 and back.dim == 8
    np.testing.assert_allclose(back["a"].vector, store["a"].vector, atol=1e-7)


def test_embedding_store_dim_mismatch_and_truncation(tmp_path, rng):
    store = EmbeddingStore(4)
    with pytest.raises(FormatError):
        store.add("x", rng.standard_normal(5))
    store.add("x", rng.standard_normal(4))
    p = tmp_path / "e.mfem"
    corpus.save_embeddings(store, p)
    (tmp_path / "cut.mfem").write_bytes(p.read_bytes()[:-6])
    with pytest.raises(FormatError, match="truncated"):
        corpus.load_embeddings(tmp_path / "cut.mfem")


def test_embedding_store_bad_keys(tmp_path, rng):
    """A key that is not UTF-8, a file cut inside a key, or a vector that
    cannot be normalized is a FormatError naming the entry."""
    store = EmbeddingStore(4)
    store.add("spk0", rng.standard_normal(4))
    store.add("spk1", rng.standard_normal(4))
    p = tmp_path / "e.mfem"
    corpus.save_embeddings(store, p)
    data = p.read_bytes()
    entry = 2 + 4 + 4 * 4  # key length, key, vector
    second_key = 12 + entry + 2
    bad = tmp_path / "bad.mfem"
    bad.write_bytes(data[:second_key] + b"\xff" + data[second_key + 1 :])
    with pytest.raises(FormatError, match="entry 1 is not UTF-8"):
        corpus.load_embeddings(bad)
    cut = tmp_path / "cut.mfem"
    cut.write_bytes(data[: 12 + 2 + 2])
    with pytest.raises(FormatError, match="truncated key at entry 0"):
        corpus.load_embeddings(cut)
    zero = tmp_path / "zero.mfem"
    zero.write_bytes(data[: 12 + entry + 2 + 4] + bytes(16))
    with pytest.raises(FormatError, match="entry 1 \\('spk1'\\)"):
        corpus.load_embeddings(zero)


def test_fixture_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    fixture.write_fixture_corpus(a, seed=3)
    fixture.write_fixture_corpus(b, seed=3)
    for pa in sorted(a.rglob("*")):
        if pa.is_file():
            pb = b / pa.relative_to(a)
            assert pa.read_bytes() == pb.read_bytes(), pa.name
