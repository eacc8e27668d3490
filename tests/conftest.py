import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread, as perfbench sets: the program's matrices are
# small, and on a busy two-vCPU machine OpenBLAS threads waiting for work
# made an SSRN training step about nine times slower (two runs side by
# side: ~2 s per step, against 0.21 s with one thread each).  This must run
# before numpy loads OpenBLAS; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from melforge import corpus, dsp, fixture
from melforge.model import ModelConfig


@pytest.fixture(scope="session")
def toy_corpus(tmp_path_factory):
    """Bundled 2-speaker/20-utterance corpus, written once per session."""
    root = tmp_path_factory.mktemp("corpus") / "toy"
    fixture.write_fixture_corpus(root, seed=0)
    return root


@pytest.fixture(scope="session")
def prepared_toy(toy_corpus, tmp_path_factory):
    """Manifest with feature caches plus the resolved feature config."""
    manifest = corpus.build_manifest(toy_corpus)
    fcfg = dsp.FeatureConfig()
    ref_lin, ref_mel = corpus.corpus_reference_levels(manifest, fcfg)
    fcfg = fcfg.with_refs(ref_lin, ref_mel)
    out = tmp_path_factory.mktemp("features")
    manifest = corpus.precompute_features(manifest, fcfg, out)
    store = corpus.load_embeddings(toy_corpus / "embeddings.mfem")
    return manifest, fcfg, store


@pytest.fixture
def tiny_model_config():
    """Small-but-real model dimensions for shape and gradient tests."""
    return ModelConfig(
        vocab_size=12,
        n_mels=10,
        n_bins=33,
        attention_dim=16,
        embed_dim=8,
        speaker_dim=16,
        width_scale=0.0625,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def crash_writing(monkeypatch):
    """``crash_writing(name)``: from then on, every write into a file called
    ``name`` through ``fileio.atomic_write`` stores a few bytes and then
    fails with ``OSError("disk full")``."""
    from melforge import fileio

    real_open = open

    class Crashing:
        def __init__(self, f):
            self._f = f

        def write(self, data):
            self._f.write(data[:4])
            raise OSError("disk full")

        def __getattr__(self, name):
            return getattr(self._f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    def arm(name):
        def fake_open(file, *args, **kwargs):
            f = real_open(file, *args, **kwargs)
            return Crashing(f) if Path(file).name.startswith(name + ".") else f

        monkeypatch.setattr(fileio, "open", fake_open, raising=False)

    return arm
