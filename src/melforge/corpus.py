"""Dataset ingestion: manifests over a speaker/utterance tree, deterministic
speaker splits, feature precomputation with cache invalidation, and the
binary speaker-embedding store.

Corpus layout: ``root/<speaker_id>/<utterance_id>.wav`` with a sibling
``.txt`` transcript.  Utterances without a transcript are skipped and
logged.
"""

from __future__ import annotations

import io
import json
import logging
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dsp, textproc
from .config import feature_hash
from .errors import CorpusError, FormatError
from .fileio import BinaryReader, atomic_write, read_text
from .model import SpeakerEmbedding, unit_normalized

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ManifestRecord:
    utterance_id: str
    speaker_id: str
    wav: str
    text: str  # normalized
    features: dict[str, str] = field(default_factory=dict)  # kind -> cache path


@dataclass(frozen=True)
class Manifest:
    records: tuple[ManifestRecord, ...]

    def speakers(self) -> list[str]:
        return sorted({r.speaker_id for r in self.records})

    def by_speaker(self) -> dict[str, list[ManifestRecord]]:
        out: dict[str, list[ManifestRecord]] = {}
        for r in self.records:
            out.setdefault(r.speaker_id, []).append(r)
        return out

    def __len__(self) -> int:
        return len(self.records)


SPLIT_SCHEMES = {
    "s1": (42, 66),
    "s2": (60, 48),
    "s3": (88, 20),
    # every speaker in both halves; used by the bundled toy fixture
    "all": (None, None),
}


@dataclass(frozen=True)
class SplitScheme:
    name: str
    n_train: int | None
    n_test: int | None
    seed: int = 0

    @classmethod
    def named(cls, name: str, seed: int = 0) -> "SplitScheme":
        key = name.lower()
        if key not in SPLIT_SCHEMES:
            raise CorpusError(
                f"unknown split scheme {name!r}; choose from {sorted(SPLIT_SCHEMES)}"
            )
        n_train, n_test = SPLIT_SCHEMES[key]
        return cls(key, n_train, n_test, seed)


def build_manifest(corpus_root) -> Manifest:
    """Scan the corpus tree into records with normalized transcripts."""
    root = Path(corpus_root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for spk_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for wav_path in sorted(spk_dir.glob("*.wav")):
            utt_id = wav_path.stem
            txt_path = wav_path.with_suffix(".txt")
            if not txt_path.exists():
                log.warning("skipping %s: no transcript", wav_path)
                continue
            if utt_id in seen:
                raise CorpusError(f"duplicate utterance id {utt_id!r}")
            seen.add(utt_id)
            raw = read_text(txt_path, CorpusError).strip()
            records.append(
                ManifestRecord(
                    utterance_id=utt_id,
                    speaker_id=spk_dir.name,
                    wav=str(wav_path),
                    text=textproc.normalize_text(raw),
                )
            )
    if not records:
        raise CorpusError(f"no usable utterances under {root}")
    return Manifest(tuple(records))


def make_split(manifest: Manifest, scheme: SplitScheme) -> tuple[Manifest, Manifest]:
    """Deterministic speaker-level split; train and test speakers are
    disjoint except under the 'all' scheme."""
    speakers = manifest.speakers()
    if scheme.name == "all":
        return manifest, manifest
    total = scheme.n_train + scheme.n_test
    if len(speakers) < total:
        raise CorpusError(
            f"scheme {scheme.name} needs {total} speakers, corpus has {len(speakers)}"
        )
    rng = np.random.default_rng(scheme.seed)
    order = list(rng.permutation(speakers))
    train_set = set(order[: scheme.n_train])
    test_set = set(order[scheme.n_train : total])
    train = Manifest(tuple(r for r in manifest.records if r.speaker_id in train_set))
    test = Manifest(tuple(r for r in manifest.records if r.speaker_id in test_set))
    return train, test


# ---------------------------------------------------------------------------
# manifest serialization (JSON lines)
# ---------------------------------------------------------------------------


def save_manifest(manifest: Manifest, path) -> None:
    with atomic_write(path) as f:
        for r in manifest.records:
            f.write(
                json.dumps(
                    {
                        "utterance_id": r.utterance_id,
                        "speaker_id": r.speaker_id,
                        "wav": r.wav,
                        "text": r.text,
                        "features": r.features,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


_MANIFEST_STRINGS = ("utterance_id", "speaker_id", "wav", "text")


def load_manifest(path) -> Manifest:
    """The records of a JSON-lines manifest.  Bytes that are not UTF-8, or
    a line that is not a JSON object with string ids, ``wav`` and ``text``
    and an optional ``features`` object of strings, are a `FormatError`
    naming the line."""
    records = []
    text = read_text(path, FormatError)
    for line_no, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}:{line_no}: bad manifest line ({e})") from e
        if not isinstance(d, dict):
            raise FormatError(f"{path}:{line_no}: bad manifest line (not a JSON object)")
        for key in _MANIFEST_STRINGS:
            if not isinstance(d.get(key), str):
                what = "missing" if key not in d else "not a string"
                raise FormatError(f"{path}:{line_no}: bad manifest line ({key!r} {what})")
        features = d.get("features", {})
        if not isinstance(features, dict) or not all(
            isinstance(v, str) for v in features.values()
        ):
            raise FormatError(
                f"{path}:{line_no}: bad manifest line ('features' is not an object of strings)"
            )
        records.append(ManifestRecord(**{k: d[k] for k in _MANIFEST_STRINGS}, features=features))
    return Manifest(tuple(records))


# ---------------------------------------------------------------------------
# feature precomputation
# ---------------------------------------------------------------------------


def corpus_reference_levels(
    manifest: Manifest, config: dsp.FeatureConfig
) -> tuple[float, float]:
    """Maximum linear/mel magnitudes over the corpus (normalization refs)."""
    ref_lin = ref_mel = 0.0
    for r in manifest.records:
        wave = dsp.resample(dsp.read_wav(r.wav), config.sample_rate)
        linmag, melmag = dsp.raw_magnitudes(wave, config)
        ref_lin = max(ref_lin, float(linmag.max()))
        ref_mel = max(ref_mel, float(melmag.max()))
    if ref_lin <= 0 or ref_mel <= 0:
        raise CorpusError("corpus is silent: zero reference magnitude")
    return ref_lin, ref_mel


def _extract_one(record: ManifestRecord, config: dsp.FeatureConfig, paths) -> bool:
    try:
        wave = dsp.resample(dsp.read_wav(record.wav), config.sample_rate)
        grids = dsp.wave_to_features(wave, config)
    except (FormatError, OSError, ValueError) as e:
        log.error("skipping %s: %s", record.wav, e)
        return False
    for kind, grid in grids.items():
        dsp.write_feature_cache(grid, paths[kind])
    return True


def precompute_features(manifest: Manifest, config: dsp.FeatureConfig, out_dir) -> Manifest:
    """Write (or reuse) feature caches for every record.

    Caches are pure functions of (audio bytes, config); a features.json
    with the config hash marks the cache directory, and a hash change
    invalidates everything, as does a marker that is not a JSON object
    holding a hash.  Unreadable audio skips the record and the run
    continues.  Utterances are extracted on a thread pool that lives only
    for the call, sized by `dsp.worker_count`; each writes only its own
    caches, so the outputs do not depend on the worker count.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta_path = out / "features.json"
    h = feature_hash(config)
    reuse = False
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            reuse = isinstance(meta, dict) and meta.get("hash") == h
        except (ValueError, OSError):  # bad JSON or bytes that are not UTF-8
            reuse = False
        if not reuse:
            for stale in out.glob("*.mfrg"):
                stale.unlink()
    all_paths = {
        r.utterance_id: {
            kind: str(out / f"{r.utterance_id}.{kind}.mfrg")
            for kind in dsp.FEATURE_KINDS
        }
        for r in manifest.records
    }
    todo = [
        r
        for r in manifest.records
        if not (reuse and all(Path(p).exists() for p in all_paths[r.utterance_id].values()))
    ]
    ok = {r.utterance_id for r in manifest.records} - {r.utterance_id for r in todo}
    with ThreadPoolExecutor(dsp.worker_count(len(todo))) as pool:
        results = pool.map(lambda r: _extract_one(r, config, all_paths[r.utterance_id]), todo)
        ok.update(r.utterance_id for r, good in zip(todo, results) if good)
    records = [
        replace(r, features=all_paths[r.utterance_id])
        for r in manifest.records
        if r.utterance_id in ok
    ]
    if not records:
        raise CorpusError("feature precomputation produced no usable records")
    with atomic_write(meta_path) as f:
        f.write(json.dumps({"hash": h, "config": config.to_dict()}, indent=2, sort_keys=True))
    return Manifest(tuple(records))


# ---------------------------------------------------------------------------
# speaker-embedding store
# ---------------------------------------------------------------------------

_EMB_MAGIC = b"MFEM"


class EmbeddingStore:
    """Map from speaker or utterance id to a unit-norm embedding."""

    def __init__(self, dim: int):
        self.dim = dim
        self._table: dict[str, SpeakerEmbedding] = {}

    def add(self, key: str, vector: np.ndarray) -> None:
        v = np.asarray(vector, dtype=np.float32)
        if v.shape != (self.dim,):
            raise FormatError(
                f"embedding for {key!r} has dim {v.shape}, store expects ({self.dim},)"
            )
        self._table[key] = unit_normalized(v, key)

    def __getitem__(self, key: str) -> SpeakerEmbedding:
        return self._table[key]

    def __contains__(self, key: str) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def keys(self):
        return self._table.keys()


def save_embeddings(store: EmbeddingStore, path) -> None:
    with atomic_write(path, "wb") as f:
        f.write(_EMB_MAGIC)
        f.write(struct.pack("<II", store.dim, len(store)))
        for key in sorted(store.keys()):
            kb = key.encode("utf-8")
            f.write(struct.pack("<H", len(kb)))
            f.write(kb)
            f.write(store[key].vector.astype("<f4").tobytes())


def load_embeddings(path) -> EmbeddingStore:
    with BinaryReader(path) as r:
        head = r.read(12, "embedding-store header")
        if head[:4] != _EMB_MAGIC:
            raise FormatError(f"{path}: bad embedding-store header")
        dim, count = struct.unpack("<II", head[4:])
        store = EmbeddingStore(dim)
        for i in range(count):
            (klen,) = struct.unpack("<H", r.read(2, "key length at entry %d", i))
            try:
                key = r.read(klen, "key at entry %d", i).decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: key of entry {i} is not UTF-8 ({e})") from e
            vec = r.read(dim * 4, "vector for %r (entry %d)", key, i)
            try:
                store.add(key, np.frombuffer(vec, dtype="<f4"))
            except ValueError as e:  # zero or non-finite vector
                raise FormatError(f"{path}: entry {i} ({key!r}): {e}") from e
    return store
