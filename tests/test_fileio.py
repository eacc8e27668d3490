"""Crash-safe whole-file writes: a failed write leaves the old file and no
temporary behind.  Bounded binary reads: no length field in a cache,
checkpoint or embedding store can ask for more bytes than the file holds."""

import re
import struct

import numpy as np
import pytest

from melforge import corpus, dsp, fileio, train
from melforge.errors import FormatError
from melforge.textproc import CharVocab


def test_atomic_write_replaces_only_on_success(tmp_path):
    p = tmp_path / "out.txt"
    p.write_text("old")
    with pytest.raises(RuntimeError):
        with fileio.atomic_write(p) as f:
            f.write("new")
            raise RuntimeError("interrupted")
    assert p.read_text() == "old"
    # two writes of one file at once use two temporaries
    with fileio.atomic_write(p) as a, fileio.atomic_write(p) as b:
        assert a.name != b.name
        a.write("a")
        b.write("b")
    assert p.read_text() == "a"
    assert [q.name for q in tmp_path.iterdir()] == ["out.txt"]


def test_feature_cache_crash_keeps_old_file(tmp_path, rng, crash_writing):
    grid = rng.random((7, 5)).astype(np.float32)
    p = tmp_path / "utt.mel.mfrg"
    dsp.write_feature_cache(grid, p)
    before = p.read_bytes()
    crash_writing("utt.mel.mfrg")
    with pytest.raises(OSError, match="disk full"):
        dsp.write_feature_cache(grid + 1.0, p)
    assert p.read_bytes() == before
    np.testing.assert_array_equal(dsp.read_feature_cache(p), grid)
    assert [q.name for q in tmp_path.iterdir()] == ["utt.mel.mfrg"]


def test_binary_reader_refuses_a_read_past_the_end(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    with fileio.BinaryReader(p) as r:
        assert r.read(2, "head") == b"ab" and r.offset == 2
        with pytest.raises(FormatError) as e:
            r.read(2, "entry %d of %r", 7, "t")
        assert r.read(1, "tail") == b"c" and r.offset == 3
    assert str(e.value) == f"{p}: truncated entry 7 of 't' at offset 2 (2 bytes wanted, 1 left)"


def _mfck(path):
    """A checkpoint whose tables each hold one (2, 3) tensor ``w``; the
    offsets of the first table's length fields."""
    table = {"w": np.ones((2, 3), dtype=np.float32)}
    ck = train.Checkpoint(
        model_id="t2m", iteration=1, params=table, disc_params=table,
        opt={"m": table, "v": table}, opt_t=1, disc_opt={"m": table, "v": table},
        disc_opt_t=1, vocab=CharVocab().chars, feature_hash="0123456789abcdef",
    )
    train.save_checkpoint(ck, path)
    (mlen,) = struct.unpack("<I", path.read_bytes()[8:12])
    t = 12 + mlen
    ndim = t + 4 + 2 + 1  # after the count, the name length and "w"
    return {"metadata": 8, "count": t, "name": t + 4, "ndim": ndim, "shape": ndim + 4}


def _mfrg(path):
    dsp.write_feature_cache(np.ones((3, 4), dtype=np.float32), path)
    return {"rows": 8, "cols": 12}


def _mfem(path):
    store = corpus.EmbeddingStore(4)
    store.add("spk0", np.ones(4))
    corpus.save_embeddings(store, path)
    return {"dim": 4, "key": 12}


# (format, field, width of the field in bytes)
LENGTH_FIELDS = [
    ("mfck", "metadata", 4), ("mfck", "count", 4), ("mfck", "name", 2),
    ("mfck", "ndim", 4), ("mfck", "shape", 4),
    ("mfrg", "rows", 4), ("mfrg", "cols", 4),
    ("mfem", "dim", 4), ("mfem", "key", 2),
]
FORMATS = {
    "mfck": (_mfck, train.load_checkpoint),
    "mfrg": (_mfrg, dsp.read_feature_cache),
    "mfem": (_mfem, corpus.load_embeddings),
}


@pytest.mark.parametrize(
    "fmt,field,width", LENGTH_FIELDS, ids=[f"{f}-{n}" for f, n, _ in LENGTH_FIELDS]
)
def test_corrupt_length_field_is_refused(fmt, field, width, tmp_path):
    """A length field set to all ones is a FormatError naming the file,
    before anything of that length is allocated: never MemoryError,
    OverflowError or struct.error."""
    write, load = FORMATS[fmt]
    good = tmp_path / f"good.{fmt}"
    at = write(good)[field]
    load(good)
    data = good.read_bytes()
    bad = tmp_path / f"bad.{fmt}"
    bad.write_bytes(data[:at] + b"\xff" * width + data[at + width :])
    with pytest.raises(FormatError) as e:
        load(bad)
    assert str(e.value).startswith(f"{bad}: ")


def test_checkpoint_tensor_of_too_many_axes_is_refused(tmp_path):
    """A tensor whose rank field claims 70 axes of length 1 holds one value,
    which numpy cannot shape: a FormatError naming the file and tensor."""
    good = tmp_path / "good.mfck"
    at = _mfck(good)["ndim"]
    data = good.read_bytes()
    bad = tmp_path / "bad.mfck"
    bad.write_bytes(data[:at] + struct.pack("<71I", 70, *[1] * 70) + data[at + 12 :])
    with pytest.raises(FormatError, match=re.escape(f"{bad}: tensor 'w': maximum supported")):
        train.load_checkpoint(bad)
