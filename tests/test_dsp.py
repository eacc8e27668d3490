"""Signal-chain checks against naive oracles: DFT, round trips, phase
retrieval, filterbanks, normalization algebra, resampling, WAV and cache
formats."""

import os
import re
import sys
import threading

import numpy as np
import pytest

from melforge import dsp
from melforge.errors import FormatError
from oracles import loop_istft, max_rel_err, naive_dct2_ortho, naive_dft, strided_griffin_lim


@pytest.fixture
def wave(rng):
    return dsp.Waveform(rng.standard_normal(4096), 22050)


def test_stft_shape_and_zero_input():
    z = dsp.stft(dsp.Waveform(np.zeros(3000), 22050), 1024, 256)
    assert z.shape[0] == 513
    np.testing.assert_array_equal(np.abs(z), 0.0)


def test_stft_matches_naive_dft(wave):
    spec = dsp.stft(wave, 1024, 256)
    pad = 512
    xp = np.pad(wave.samples, (pad, pad), mode="reflect")
    win = np.hanning(1024)
    for t in (0, 5, spec.shape[1] - 1):
        frame = xp[t * 256 : t * 256 + 1024] * win
        assert max_rel_err(spec[:, t], naive_dft(frame)) <= 1e-6


def test_stft_argument_validation(wave):
    with pytest.raises(ValueError):
        dsp.stft(wave, 1000, 256)  # not a power of two
    with pytest.raises(ValueError):
        dsp.stft(wave, 1024, 2048)  # hop > win
    with pytest.raises(ValueError):
        dsp.stft(wave, 0, 0)


def test_istft_roundtrip_snr(wave):
    spec = dsp.stft(wave, 1024, 256)
    rec = dsp.istft(spec, 1024, 256).samples
    x = wave.samples
    aligned = rec[512 : 512 + x.size]
    inner = slice(1024, x.size - 1024)
    err = aligned[inner] - x[inner]
    snr = 10 * np.log10(np.sum(x[inner] ** 2) / np.sum(err**2))
    assert snr > 60.0


def test_istft_contracts():
    with pytest.raises(ValueError):
        dsp.istft(np.zeros((100, 4), dtype=complex), 1024, 256)
    single = dsp.istft(np.zeros((513, 1), dtype=complex), 1024, 256)
    assert single.samples.size == 1024
    np.testing.assert_array_equal(single.samples, 0.0)


@pytest.mark.parametrize(
    "frames, win, hop",
    [(12, 1024, 256), (1, 1024, 256), (9, 64, 48), (7, 256, 100), (5, 16, 16), (6, 32, 1)],
)
def test_istft_equals_loop_overlap_add(frames, win, hop, rng):
    grid = rng.standard_normal((win // 2 + 1, frames)) + 1j * rng.standard_normal(
        (win // 2 + 1, frames)
    )
    out = dsp.istft(grid, win, hop).samples
    assert np.array_equal(out, loop_istft(grid, win, hop))


def test_griffin_lim_sine_reconstruction():
    n = 11025
    sine = 0.8 * np.sin(2 * np.pi * 440 * np.arange(n) / 22050)
    mag = np.abs(dsp.stft(dsp.Waveform(sine, 22050), 1024, 256))
    rec = dsp.griffin_lim(mag, 100).samples
    m = 1024
    ts = np.arange(m, rec.size - m)
    rr = rec[m : rec.size - m]
    s = np.sin(2 * np.pi * 440 * ts / 22050)
    c = np.cos(2 * np.pi * 440 * ts / 22050)
    # max |correlation| over phase via projection onto the quadrature pair
    num = np.hypot(np.dot(rr, s), np.dot(rr, c))
    den = np.linalg.norm(rr) * np.sqrt(ts.size / 2)
    assert num / den >= 0.99


def test_griffin_lim_monotone_and_zero(rng):
    mag = rng.random((513, 12)) * 2.0
    _, errs = dsp.griffin_lim(mag, 60, return_errors=True)
    assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))
    # errors at later iterations never exceed earlier ones
    assert errs[50] <= errs[5]
    zero = dsp.griffin_lim(np.zeros((513, 3)), 5)
    np.testing.assert_array_equal(zero.samples, 0.0)


def test_griffin_lim_rejects_bad_magnitudes():
    with pytest.raises(ValueError):
        dsp.griffin_lim(-np.ones((513, 2)), 3)
    with pytest.raises(ValueError):
        dsp.griffin_lim(np.zeros((513, 2)), -1)
    # the shape must be (win // 2 + 1, T); the message names both
    for shape in [(513,), (257, 4), (1, 4), (513, 4, 1), ()]:
        with pytest.raises(ValueError, match=rf"win=1024.*{re.escape(str(shape))}"):
            dsp.griffin_lim(np.zeros(shape), 2)
    with pytest.raises(ValueError, match=r"win=64.*\(513, 4\)"):
        dsp.griffin_lim(np.zeros((513, 4)), 2, win=64, hop=16)
    wave, errors = dsp.griffin_lim(np.zeros((513, 0)), 3, return_errors=True)
    assert wave.samples.shape == (0,) and errors == [0.0] * 4


def test_griffin_lim_deterministic(rng):
    mag = rng.random((513, 6))
    a = dsp.griffin_lim(mag, 15).samples
    b = dsp.griffin_lim(mag, 15).samples
    np.testing.assert_array_equal(a, b)


# case -> STFT frames (or None for the tone), win, hop, momentum, whether
# some momentum steps are rejected.  With more than one CPU, every case but
# "one_frame" is cut into one Griffin-Lim work block per worker.
GL_ORACLE_CASES = {
    "tone": (None, 1024, 256, 0.99, False),
    "overshoot": (70, 1024, 256, 1.5, True),
    "small": (17, 64, 16, 0.99, False),
    "ragged": (300, 1024, 256, 0.99, False),
    "two_blocks": (256, 1024, 256, 0.99, False),
    "one_frame": (1, 1024, 256, 0.99, True),
    "overshoot_blocks": (300, 1024, 256, 1.5, True),
}


@pytest.mark.parametrize("case", list(GL_ORACLE_CASES))
def test_griffin_lim_matches_strided_layout_oracle(case, rng):
    """The contiguous, blocked (T, F) Griffin-Lim returns the waveform of
    the same formulas run in the (F, T) layout bit for bit, and its error
    history too from 256 KiB of magnitudes on.  The overshoot cases take a
    momentum large enough to reject some extrapolated steps, so the
    fallback runs."""
    t_frames, win, hop, momentum, rejects = GL_ORACLE_CASES[case]
    if t_frames is None:
        sine = 0.8 * np.sin(2 * np.pi * 440 * np.arange(70 * 256) / 22050)
        mag = np.abs(dsp.stft(dsp.Waveform(sine, 22050), win, hop))  # (513, 71)
    else:
        mag = rng.random((win // 2 + 1, t_frames))
        if momentum > 1:
            mag = mag**3
    wave, errors = dsp.griffin_lim(
        mag, 20, win=win, hop=hop, momentum=momentum, return_errors=True
    )
    samples, errors_o, rejected = strided_griffin_lim(
        mag, 20, win=win, hop=hop, momentum=momentum
    )
    assert np.array_equal(wave.samples, samples)
    if case == "small":  # (F, T) sums this error in (F, T) order
        np.testing.assert_allclose(errors, errors_o, rtol=1e-15, atol=0.0)
    else:
        assert errors == errors_o
    assert (rejected > 0) == rejects


@pytest.mark.parametrize("momentum", [0.99, 1.5])
def test_griffin_lim_same_bytes_for_any_worker_count(momentum, rng, monkeypatch):
    """One worker runs the blocks inline, three share them on a pool with
    frequent thread switches; both give the same waveform and error
    history, and no thread outlives the call."""
    mag = rng.random((513, 300)) ** 3
    before = set(threading.enumerate())
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 3):
            monkeypatch.setattr(dsp, "worker_count", lambda n_blocks, w=workers: w)
            wave, errors = dsp.griffin_lim(mag, 12, momentum=momentum, return_errors=True)
            results.append((wave.samples.tobytes(), errors))
            assert set(threading.enumerate()) == before
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1]


@pytest.mark.parametrize("t_frames", [0, 1, 2])
def test_griffin_lim_same_bytes_with_fewer_frames_than_workers(t_frames, rng, monkeypatch):
    """Three workers on at most two frames leave some blocks empty; the
    waveform and error history are still those of one worker."""
    mag = rng.random((513, t_frames)) ** 3
    results = []
    for workers in (1, 3):
        monkeypatch.setattr(dsp, "worker_count", lambda t, w=workers: w)
        wave, errors = dsp.griffin_lim(mag, 12, momentum=1.5, return_errors=True)
        results.append((wave.samples.tobytes(), errors))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "t_frames,workers",
    [(400, 2), (1600, 2), (1600, 1), (300, 3), (129, 2), (128, 1), (100, 1), (2, 3), (0, 3)],
)
def test_griffin_lim_blocks_are_equal_and_fill_the_workers(t_frames, workers):
    """The frames are cut in order into one block per worker, whose sizes
    differ by at most one: 400 frames on two workers are two blocks of
    200, and two frames on three workers leave one block empty."""
    blocks = dsp._gl_blocks(t_frames, workers)
    sizes = [b.stop - b.start for b in blocks]
    assert len(blocks) == workers
    assert max(sizes) - min(sizes) <= 1
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == t_frames


def test_griffin_lim_worker_count():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    assert dsp.worker_count(0) == 1
    assert dsp.worker_count(1) == 1
    assert dsp.worker_count(10_000) == cpus


def test_mel_scale_value():
    assert dsp.hz_to_mel(11025.0) == pytest.approx(2595 * np.log10(1 + 11025 / 700), abs=1e-9)
    assert dsp.hz_to_mel(11025.0) == pytest.approx(3176.3, abs=0.1)


def test_mel_filterbank_construction():
    fb = dsp.build_mel_filterbank(80, 513, 22050)
    assert fb.shape == (80, 513)
    assert np.all(fb >= 0)
    for row in fb:
        support = np.where(row > 0)[0]
        assert support.size >= 1
        assert np.array_equal(support, np.arange(support[0], support[-1] + 1))
    with pytest.raises(ValueError):
        dsp.build_mel_filterbank(600, 513, 22050)


def test_mel_applied_to_nonnegative_stays_nonnegative(rng):
    fb = dsp.build_mel_filterbank(80, 513, 22050)
    mags = rng.random((513, 7))
    assert np.all(fb @ mags >= 0)


def test_normalize_db_endpoints_and_range(rng):
    assert dsp.normalize_db(np.array([60.0]), 60.0)[0] == pytest.approx(1.0)
    assert dsp.normalize_db(np.array([0.0]), 60.0)[0] == 0.0
    # -100 dB relative hits the floor exactly
    assert dsp.normalize_db(np.array([60.0 * 1e-5]), 60.0)[0] == pytest.approx(0.0, abs=1e-12)
    vals = dsp.normalize_db(rng.random(1000) * 100, 60.0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_denormalize_algebra(rng):
    m = rng.uniform(0.01, 59.0, 200)
    ref = 60.0
    out = dsp.denormalize_db(dsp.normalize_db(m, ref), ref, sharpen=1.3)
    np.testing.assert_allclose(out, m**1.3 / ref**0.3, rtol=1e-10)


def test_denormalize_monotone(rng):
    x = np.sort(rng.uniform(0, 60, 100))
    y = dsp.denormalize_db(dsp.normalize_db(x, 60.0), 60.0)
    assert np.all(np.diff(y) >= 0)


def test_downsample_frame_rule():
    mel = np.arange(80 * 8, dtype=float).reshape(80, 8)
    out = dsp.downsample_frames(mel, 4)
    assert out.shape[1] == 2
    np.testing.assert_array_equal(out, mel[:, [0, 4]])
    assert dsp.downsample_frames(mel[:, :4], 4).shape[1] == 1
    for t in range(1, 20):
        assert dsp.downsample_frames(np.ones((3, t)), 4).shape[1] == -(-t // 4)


def test_wave_to_features_shapes(rng):
    cfg = dsp.FeatureConfig()
    wave = dsp.Waveform(rng.standard_normal(22050), 22050)
    feats = dsp.wave_to_features(wave, cfg)
    assert tuple(feats) == dsp.FEATURE_KINDS
    t = feats["lin"].shape[1]
    assert feats["lin"].shape == (513, t)
    assert feats["mel"].shape == (80, t)
    assert feats["dmel"].shape == (80, -(-t // 4))
    for grid in feats.values():
        assert grid.dtype == np.float32
        assert grid.min() >= 0 and grid.max() <= 1
    with pytest.raises(ValueError):
        dsp.wave_to_features(dsp.Waveform(np.zeros(100), 16000), cfg)


def test_lfcc_dimensions_and_zero_signal():
    out = dsp.lfcc(dsp.Waveform(np.zeros(22050), 22050))
    assert out.shape[0] == 60 and out.dtype == np.float32
    spread = out.max(axis=1) - out.min(axis=1)
    np.testing.assert_allclose(spread, 0.0, atol=1e-9)  # all frames equal
    short = dsp.lfcc(dsp.Waveform(np.zeros(10), 22050))
    assert short.shape[1] == 1


def test_lfcc_constants_per_rate_and_read_only(rng):
    """The cached window and filterbank are built per sample rate and
    cannot be written; features at one rate are unchanged by a call at
    another."""
    waves = [dsp.Waveform(rng.standard_normal(4000), sr) for sr in (22050, 16000)]
    first = [dsp.lfcc(w) for w in waves]
    again = [dsp.lfcc(w) for w in reversed(waves)][::-1]
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()
    assert first[0].shape[1] != first[1].shape[1]
    hop, window, fb = dsp._lfcc_constants(16000)
    assert (hop, window.size, fb.shape) == (240, 480, (dsp.LFCC_FILTERS, 241))
    for a in (window, fb):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_lfcc_dct_stage_matches_naive(rng):
    x = rng.standard_normal((20, 9))
    assert max_rel_err(dsp.dct_ii_ortho(x, axis=0), naive_dct2_ortho(x)) <= 1e-6


def test_resample_sine_and_identity(rng):
    t = np.arange(48000)
    sine = np.sin(2 * np.pi * 1000 * t / 48000)
    out = dsp.resample(dsp.Waveform(sine, 48000), 22050)
    expect = np.sin(2 * np.pi * 1000 * np.arange(out.samples.size) / 22050)
    inner = slice(500, out.samples.size - 500)
    corr = np.dot(out.samples[inner], expect[inner]) / (
        np.linalg.norm(out.samples[inner]) * np.linalg.norm(expect[inner])
    )
    assert corr >= 0.999
    assert abs(out.samples.size - int(np.ceil(48000 * 147 / 320))) <= 1
    w = dsp.Waveform(rng.standard_normal(500), 22050)
    assert dsp.resample(w, 22050) is w


def test_wav_roundtrip(tmp_path, rng):
    wave = dsp.Waveform(rng.uniform(-1, 1, 4000), 22050)
    p = tmp_path / "x.wav"
    dsp.write_wav(wave, p)
    back = dsp.read_wav(p)
    assert back.sample_rate == 22050
    assert np.abs(back.samples - wave.samples).max() <= 2**-15


def test_wav_rejects_stereo_and_garbage(tmp_path, rng):
    import wave as wave_mod

    p = tmp_path / "stereo.wav"
    with wave_mod.open(str(p), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(22050)
        f.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(FormatError):
        dsp.read_wav(p)
    bad = tmp_path / "junk.wav"
    bad.write_bytes(b"not a wav at all")
    with pytest.raises(FormatError):
        dsp.read_wav(bad)


@pytest.mark.parametrize("keep", [20, 45, 500], ids=["header", "odd_byte", "data"])
def test_wav_truncated_is_refused(keep, tmp_path):
    """A WAV cut inside its header, or inside its data chunk at an odd or
    an even byte, is a truncated WAV; a cut data chunk used to read as a
    shorter waveform, or to fail in numpy on an odd byte count."""
    p = tmp_path / "x.wav"
    dsp.write_wav(dsp.Waveform(np.zeros(1000), 16000), p)
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(FormatError, match="truncated WAV"):
        dsp.read_wav(p)


def test_feature_cache_roundtrip_and_truncation(tmp_path, rng):
    grid = rng.random((7, 5)).astype(np.float32)
    p = tmp_path / "grid.mfrg"
    dsp.write_feature_cache(grid, p)
    np.testing.assert_array_equal(dsp.read_feature_cache(p), grid)
    data = p.read_bytes()
    (tmp_path / "cut.mfrg").write_bytes(data[:-8])
    with pytest.raises(FormatError, match="truncated"):
        dsp.read_feature_cache(tmp_path / "cut.mfrg")
    (tmp_path / "bad.mfrg").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(FormatError):
        dsp.read_feature_cache(tmp_path / "bad.mfrg")
