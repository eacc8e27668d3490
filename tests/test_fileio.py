"""Crash-safe whole-file writes: a failed write leaves the old file and no
temporary behind."""

import numpy as np
import pytest

from melforge import dsp, fileio


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
