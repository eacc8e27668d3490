"""Deterministic signal chain.

STFT analysis/synthesis, Griffin-Lim phase retrieval, mel and linear-cepstral
features, magnitude normalization, time-downsampling, polyphase resampling and
PCM16 WAV I/O.  Everything here is a pure function over immutable inputs.

Features are plain numpy arrays.  `wave_to_features` returns the three grids
the pipeline learns, keyed by the cache kinds in `FEATURE_KINDS`: "lin", the
(win//2+1, T) linear spectrogram SSRN predicts; "mel", the (n_mels, T) mel
spectrogram; and "dmel", the (n_mels, ceil(T/downsample)) mel that Text2Mel
predicts.  `lfcc` returns a (3*LFCC_COEFFS, T) array for the anti-spoofing GMM,
under settings fixed in this module: no feature config reaches it.

Conventions:
  * STFT frames are centered: the signal is reflect-padded by win//2 on both
    sides, frame t starts at sample t*hop of the padded signal.
  * istft returns the raw overlap-add of length (T-1)*hop + win; sample n
    corresponds to original-signal sample n - win//2.
  * Magnitudes are compressed to [0, 1] with a -100 dB floor relative to a
    corpus-level reference, and sharpened by gamma on inversion before
    Griffin-Lim.
"""

from __future__ import annotations

import functools
import os
import struct
import wave as wave_mod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.fft
import scipy.signal

from .errors import FormatError
from .fileio import atomic_write

LOG_FLOOR = 1e-5  # magnitude ratio floor inside log10: exactly -100 dB

# the feature grids `wave_to_features` returns, one cache file each
FEATURE_KINDS = ("lin", "mel", "dmel")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray  # float array, nominally in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")


@dataclass(frozen=True)
class FeatureConfig:
    """Everything the feature chain needs; hashed into caches/checkpoints."""

    sample_rate: int = 22050
    win: int = 1024
    hop: int = 256
    n_mels: int = 80
    downsample: int = 4
    ref_lin: float = 60.0  # corpus max linear magnitude (set by prepare)
    ref_mel: float = 60.0  # corpus max mel magnitude (set by prepare)
    gl_iters: int = 100
    gl_sharpen: float = 1.3

    def to_dict(self) -> dict:
        return asdict(self)

    def with_refs(self, ref_lin: float, ref_mel: float) -> "FeatureConfig":
        return replace(self, ref_lin=ref_lin, ref_mel=ref_mel)


# ---------------------------------------------------------------------------
# STFT / iSTFT / Griffin-Lim
# ---------------------------------------------------------------------------


def _check_stft_args(win: int, hop: int) -> None:
    if win <= 0 or hop <= 0:
        raise ValueError(f"win and hop must be positive, got win={win} hop={hop}")
    if win & (win - 1):
        raise ValueError(f"win must be a power of two, got {win}")
    if hop > win:
        raise ValueError(f"hop={hop} exceeds win={win}")


def _frames(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    """(n_frames, win) read-only view of ``x`` at every ``hop`` samples; an
    input shorter than ``win`` is zero-padded to one frame."""
    if x.size < win:
        x = np.pad(x, (0, win - x.size))
    return np.lib.stride_tricks.sliding_window_view(x, win)[::hop]


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of the (T, win) rows placed every ``hop`` samples; length
    (T-1)*hop + win.

    Each hop-wide window segment is added for all frames at once, from the
    last segment to the first, so every output sample receives its addends
    in increasing frame order, bit for bit as a per-frame loop adds them.
    """
    n_frames, win = frames.shape
    n_seg = -(-win // hop)
    blocks = np.zeros((n_frames + n_seg - 1, hop))
    for j in reversed(range(n_seg)):
        seg = frames[:, j * hop : (j + 1) * hop]
        blocks[j : j + n_frames, : seg.shape[1]] += seg
    return blocks.reshape(-1)[: (n_frames - 1) * hop + win]


def _window_norm(window: np.ndarray, n_frames: int, hop: int) -> np.ndarray:
    """Overlap-add of the squared window over ``n_frames`` frames, floored
    at 1e-12: the divisor of a least-squares overlap-add inverse."""
    squared = np.broadcast_to(window * window, (n_frames, window.size))
    return np.maximum(_overlap_add(squared, hop), 1e-12)


def stft(wave: Waveform, win: int = 1024, hop: int = 256) -> np.ndarray:
    """Complex (win//2+1, T) grid; hann analysis window, centered frames."""
    _check_stft_args(win, hop)
    x = np.asarray(wave.samples, dtype=np.float64)
    if x.size < win:
        x = np.pad(x, (0, win - x.size))
    pad = win // 2
    x = np.pad(x, (pad, pad), mode="reflect")
    return np.fft.rfft(_frames(x, win, hop) * np.hanning(win), axis=1).T.copy()


def istft(
    grid: np.ndarray, win: int = 1024, hop: int = 256, sample_rate: int = 22050
) -> Waveform:
    """Least-squares overlap-add inverse; returns length (T-1)*hop + win.

    Sample n of the result aligns with original sample n - win//2 of the
    signal that produced the grid through `stft`.
    """
    _check_stft_args(win, hop)
    if grid.shape[0] != win // 2 + 1:
        raise ValueError(
            f"grid has {grid.shape[0]} bins, expected {win // 2 + 1} for win={win}"
        )
    window = np.hanning(win)
    frames = np.fft.irfft(grid.T, n=win, axis=1) * window
    out = _overlap_add(frames, hop)
    out /= _window_norm(window, frames.shape[0], hop)
    return Waveform(out, sample_rate=sample_rate)


def _gl_workers(t_frames: int) -> int:
    """Worker threads for Griffin-Lim over ``t_frames`` STFT frames: the
    CPUs this process may run on, at most one per frame, at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, t_frames))


def _gl_blocks(t_frames: int, n_workers: int) -> list[slice]:
    """``t_frames`` rows cut in order into ``n_workers`` contiguous blocks,
    one per worker, whose sizes differ by at most one."""
    return [
        slice(i * t_frames // n_workers, (i + 1) * t_frames // n_workers)
        for i in range(n_workers)
    ]


def griffin_lim(
    mag: np.ndarray,
    iters: int = 100,
    win: int = 1024,
    hop: int = 256,
    sample_rate: int = 22050,
    seed: int = 0,
    momentum: float = 0.99,
    return_errors: bool = False,
):
    """Phase retrieval by alternating projections with a monotone safeguard.

    Starts from a seeded random phase (a zero phase is a symmetric fixed
    point that locks tones onto the integer-cycles-per-hop frequency grid).
    Each iteration tries a momentum-extrapolated projection and keeps it only
    if the consistency error || |STFT(x_k)| - mag ||_2 does not increase;
    otherwise it falls back to the plain projection step, which never
    increases the error.  The error sequence is therefore non-increasing by
    construction.

    Deterministic given ``seed``.  ``mag`` is (win//2+1, T).  Output length
    is T * hop, aligned with the signal whose centered `stft` produced
    ``mag``.  With ``return_errors=True`` also returns the per-iteration
    error history (length iters + 1, starting at the initial estimate).

    Layout: every spectrum and intermediate is kept in the C-contiguous
    (T, F) layout that ``rfft`` produces and ``irfft`` consumes along axis
    1, and the passes write into preallocated buffers; three spectrum
    buffers rotate through the current, previous and candidate spectra.
    The waveform is bit-identical to the same formulas run in the (F, T)
    layout.  So is the error history for a ``mag`` of >= 32768 values
    (every SSRN output of >= 64 frames); below that size numpy sums an
    (F, T) error in (F, T) order, so its last bit may differ.

    Threads: there is one worker per CPU the process may use, at most one
    per frame, and the T frames are cut in order into one block per worker,
    of sizes that differ by at most one.  Each synthesis pass (momentum
    extrapolation, projection, ``irfft``, window) and each analysis pass
    (framing, window, ``rfft``, ``|spec| - mag``) runs block by block on a
    thread pool of those workers; numpy releases the GIL
    inside ufunc loops and its FFTs.  The overlap-add, the division by the
    window norm and the error norm run serially over the whole arrays once
    the blocks join.  Every block applies the same per-element operations
    and the same per-row transforms to its rows, and every reduction still
    spans the whole array, so the result does not depend on the worker
    count, bit for bit.  No thread outlives the call.
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    _check_stft_args(win, hop)
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2 or mag.shape[0] != win // 2 + 1:
        raise ValueError(
            f"mag must be ({win // 2 + 1}, T) for win={win}, got shape {mag.shape}"
        )
    if np.any(mag < 0) or not np.all(np.isfinite(mag)):
        raise ValueError("magnitudes must be finite and non-negative")
    t_frames = mag.shape[1]
    mag_tf = np.ascontiguousarray(mag.T)
    window = np.hanning(win)
    norm = _window_norm(window, t_frames, hop)
    frames = np.empty((t_frames, win))  # windowed frames, both directions
    real = np.empty(mag_tf.shape)  # |spec| and its variants
    work = np.empty(mag_tf.shape, dtype=np.complex128)  # projected spectrum
    specs = [np.empty(mag_tf.shape, dtype=np.complex128) for _ in range(3)]
    n_workers = _gl_workers(t_frames)
    blocks = _gl_blocks(t_frames, n_workers)

    def synthesize_rows(rows: slice, spec: np.ndarray, prev) -> None:
        """Rows of ``frames`` from mag * (s / max(|s|, 1e-12)), where s is
        ``spec``, or ``spec + momentum * (spec - prev)`` given ``prev``.
        The divide stays complex by real: numpy computes it as a multiply
        by the reciprocal, so dividing a real view of s changes bits."""
        w, r, f, s = work[rows], real[rows], frames[rows], spec[rows]
        if prev is not None:
            np.subtract(s, prev[rows], out=w)
            np.multiply(momentum, w, out=w)
            s = np.add(s, w, out=w)
        np.abs(s, out=r)
        np.maximum(r, 1e-12, out=r)
        np.divide(s, r, out=w)
        np.multiply(mag_tf[rows], w, out=w)
        np.fft.irfft(w, n=win, axis=1, out=f)
        np.multiply(f, window, out=f)

    def analyze_rows(rows: slice, x: np.ndarray, spec: np.ndarray) -> None:
        """Rows of ``spec`` = rfft of the windowed frames of ``x``, and the
        same rows of ``real`` = |spec| - mag."""
        f, r, s = frames[rows], real[rows], spec[rows]
        np.multiply(_frames(x, win, hop)[rows], window, out=f)
        np.fft.rfft(f, axis=1, out=s)
        np.abs(s, out=r)
        np.subtract(r, mag_tf[rows], out=r)

    with ThreadPoolExecutor(n_workers) as pool:

        def run(fn, *args) -> None:
            # list() waits for every block and re-raises a block's error
            list(pool.map(lambda rows: fn(rows, *args), blocks))

        def synthesize(spec: np.ndarray, prev=None) -> np.ndarray:
            run(synthesize_rows, spec, prev)
            x = _overlap_add(frames, hop)
            x /= norm
            return x

        def analyze(x: np.ndarray, spec: np.ndarray) -> float:
            """Fill ``spec`` from ``x``; return || |spec| - mag ||_2."""
            run(analyze_rows, x, spec)
            return float(np.linalg.norm(real))

        rng = np.random.default_rng(seed)
        # phases drawn in (F, T) order, as the seeded contract has them
        phase = np.ascontiguousarray(rng.random(mag.shape).T)
        x = synthesize(np.exp(2j * np.pi * phase))
        spec = spec_prev = specs[0]
        err = analyze(x, spec)
        errors = [err]
        for _ in range(iters):
            free = next(b for b in specs if b is not spec and b is not spec_prev)
            cand = synthesize(spec, spec_prev)
            cand_err = analyze(cand, free)
            if cand_err <= err:
                x, spec_prev, spec, err = cand, spec, free, cand_err
            else:
                x = synthesize(spec)
                err = analyze(x, free)
                spec_prev, spec = spec, free
            errors.append(err)
    pad = win // 2
    out = np.zeros(t_frames * hop)
    avail = x[pad : pad + t_frames * hop]
    out[: avail.size] = avail
    wave = Waveform(out, sample_rate)
    return (wave, errors) if return_errors else wave


# ---------------------------------------------------------------------------
# mel filterbank and features
# ---------------------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _triangle_rows(centers_hz: np.ndarray, bin_freqs: np.ndarray) -> np.ndarray:
    """Peak-normalized triangles; row m spans (centers[m-1], centers[m+1])."""
    m = centers_hz.size - 2
    weights = np.zeros((m, bin_freqs.size))
    for i in range(m):
        left, center, right = centers_hz[i], centers_hz[i + 1], centers_hz[i + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        weights[i] = np.clip(np.minimum(up, down), 0.0, None)
        if not np.any(weights[i] > 0):
            # guarantee non-empty support when a triangle is narrower than a bin
            weights[i, np.argmin(np.abs(bin_freqs - center))] = 1.0
    return weights


def build_mel_filterbank(
    n_mels: int = 80, n_bins: int = 513, sample_rate: int = 22050
) -> np.ndarray:
    """(n_mels, n_bins) non-negative, peak-normalized triangular filters
    with centers equally spaced on the mel scale between 0 Hz and Nyquist."""
    if n_mels < 1 or n_bins < 2:
        raise ValueError(f"need n_mels >= 1 and n_bins >= 2, got {n_mels}, {n_bins}")
    if n_mels > n_bins:
        raise ValueError(f"n_mels={n_mels} exceeds n_bins={n_bins}")
    fmax = sample_rate / 2.0
    centers = mel_to_hz(np.linspace(0.0, hz_to_mel(fmax), n_mels + 2))
    win = 2 * (n_bins - 1)
    bin_freqs = np.arange(n_bins) * sample_rate / win
    return _triangle_rows(centers, bin_freqs)


def normalize_db(mag: np.ndarray, ref: float) -> np.ndarray:
    """Compress magnitudes to [0, 1]: floor at -100 dB relative to ref."""
    ratio = np.maximum(np.asarray(mag, dtype=np.float64) / ref, LOG_FLOOR)
    return np.clip((20.0 * np.log10(ratio) + 100.0) / 100.0, 0.0, 1.0)


def denormalize_db(grid: np.ndarray, ref: float, sharpen: float = 1.3) -> np.ndarray:
    """Invert normalize_db and raise magnitudes to ``sharpen`` before
    Griffin-Lim; denormalize(normalize(m)) == m**sharpen / ref**(sharpen-1)."""
    db = 100.0 * np.asarray(grid, dtype=np.float64) - 100.0
    return ref * 10.0 ** (sharpen * db / 20.0)


def downsample_frames(mel: np.ndarray, factor: int = 4) -> np.ndarray:
    """Keep frames at indices 0 mod factor after right-padding the frame
    count to a multiple of factor with zeros; output has ceil(T/f) frames."""
    t = mel.shape[1]
    padded_t = -(-t // factor) * factor
    if padded_t != t:
        mel = np.pad(mel, ((0, 0), (0, padded_t - t)))
    return mel[:, ::factor].copy()


def raw_magnitudes(wave: Waveform, config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (linear, mel) magnitude grids, (win//2+1, T) and
    (n_mels, T); prepare takes the corpus reference levels from them."""
    linmag = np.abs(stft(wave, config.win, config.hop))
    fb = build_mel_filterbank(config.n_mels, config.win // 2 + 1, config.sample_rate)
    return linmag, fb @ linmag


def wave_to_features(wave: Waveform, config: FeatureConfig) -> dict[str, np.ndarray]:
    """Full feature chain: float32 grids in [0, 1] keyed by `FEATURE_KINDS`,
    the `raw_magnitudes` normalized against the config's reference levels.
    "lin" is (win//2+1, T), "mel" (n_mels, T) and "dmel" (n_mels,
    ceil(T/downsample)).  The waveform must already be at the configured
    sample rate."""
    if wave.sample_rate != config.sample_rate:
        raise ValueError(
            f"waveform at {wave.sample_rate} Hz, expected {config.sample_rate};"
            " resample first"
        )
    linmag, melmag = raw_magnitudes(wave, config)
    mel = normalize_db(melmag, config.ref_mel).astype(np.float32)
    return {
        "lin": normalize_db(linmag, config.ref_lin).astype(np.float32),
        "mel": mel,
        "dmel": downsample_frames(mel, config.downsample),
    }


# ---------------------------------------------------------------------------
# LFCC front-end
# ---------------------------------------------------------------------------


def dct_ii_ortho(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Orthonormal DCT-II along ``axis``."""
    return scipy.fft.dct(x, type=2, axis=axis, norm="ortho")


LFCC_COEFFS = 20  # static coefficients kept, c0 included
LFCC_FILTERS = 20  # linear-spaced triangular filters
LFCC_WIN_MS = 30.0
LFCC_HOP_MS = 15.0


def lfcc(wave: Waveform) -> np.ndarray:
    """Linear-frequency cepstral coefficients with delta and delta-delta.

    ``LFCC_WIN_MS`` / ``LFCC_HOP_MS`` framing, ``LFCC_FILTERS``
    linear-spaced triangular filters over log energies, orthonormal DCT-II
    keeping ``LFCC_COEFFS`` statics (incl. c0).  Returns a float32
    (3 * LFCC_COEFFS, T) array: statics, deltas, then delta-deltas.
    """
    hop, window, fb = _lfcc_constants(wave.sample_rate)
    frames = _frames(np.asarray(wave.samples, dtype=np.float64), window.size, hop)
    spec = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2
    energies = np.log(fb @ spec.T + 1e-10)
    static = dct_ii_ortho(energies, axis=0)[:LFCC_COEFFS]
    delta = _delta(static)
    return np.vstack([static, delta, _delta(delta)]).astype(np.float32)


@functools.lru_cache(maxsize=4)
def _lfcc_constants(sr: int) -> tuple[int, np.ndarray, np.ndarray]:
    """`lfcc`'s hop, Hamming window and (LFCC_FILTERS, win//2+1) filterbank
    at sample rate ``sr``, built once per rate; the arrays are read-only."""
    win = max(int(round(LFCC_WIN_MS * sr / 1000.0)), 2)
    hop = max(int(round(LFCC_HOP_MS * sr / 1000.0)), 1)
    edges = np.linspace(0.0, sr / 2.0, LFCC_FILTERS + 2)
    fb = _triangle_rows(edges, np.linspace(0.0, sr / 2.0, win // 2 + 1))
    window = np.hamming(win)
    for a in (window, fb):
        a.flags.writeable = False
    return hop, window, fb


def _delta(c: np.ndarray) -> np.ndarray:
    """Symmetric first difference over frames with edge replication."""
    padded = np.pad(c, ((0, 0), (1, 1)), mode="edge")
    return (padded[:, 2:] - padded[:, :-2]) / 2.0


# ---------------------------------------------------------------------------
# resampling and WAV I/O
# ---------------------------------------------------------------------------


def resample(wave: Waveform, target_rate: int) -> Waveform:
    """Rational-ratio polyphase resampling, band-limited below the new
    Nyquist; a wave already at ``target_rate`` is returned as it is."""
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    if target_rate == wave.sample_rate:
        return wave
    g = np.gcd(int(target_rate), int(wave.sample_rate))
    up, down = target_rate // g, wave.sample_rate // g
    out = scipy.signal.resample_poly(np.asarray(wave.samples, dtype=np.float64), up, down)
    return Waveform(out, target_rate)


def read_wav(path) -> Waveform:
    """PCM16 mono RIFF/WAVE, samples scaled to [-1, 1]."""
    try:
        with wave_mod.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise FormatError(f"{path}: only mono WAV is supported")
            if f.getsampwidth() != 2:
                raise FormatError(f"{path}: only 16-bit PCM is supported")
            if f.getcomptype() != "NONE":
                raise FormatError(f"{path}: compressed WAV is not supported")
            rate = f.getframerate()
            raw = f.readframes(f.getnframes())
    except wave_mod.Error as e:
        raise FormatError(f"{path}: malformed WAV ({e})") from e
    except EOFError as e:
        raise FormatError(f"{path}: truncated WAV") from e
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(wave: Waveform, path) -> None:
    x = np.clip(np.asarray(wave.samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with atomic_write(path, "wb") as raw, wave_mod.open(raw, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wave.sample_rate)
        f.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# feature cache files
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"MFRG"
_CACHE_VERSION = 1


def write_feature_cache(grid: np.ndarray, path) -> None:
    """Binary grid cache: magic, version u32, rows u32, cols u32, then
    row-major little-endian float32."""
    grid = np.ascontiguousarray(grid, dtype="<f4")
    if grid.ndim != 2:
        raise ValueError(f"feature cache expects a 2-D grid, got shape {grid.shape}")
    with atomic_write(path, "wb") as f:
        f.write(_CACHE_MAGIC)
        f.write(struct.pack("<III", _CACHE_VERSION, grid.shape[0], grid.shape[1]))
        f.write(grid.tobytes())


def read_feature_cache(path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) < 16 or head[:4] != _CACHE_MAGIC:
            raise FormatError(f"{path}: bad feature-cache header")
        version, rows, cols = struct.unpack("<III", head[4:])
        if version != _CACHE_VERSION:
            raise FormatError(f"{path}: unsupported cache version {version}")
        payload = f.read(rows * cols * 4)
        if len(payload) != rows * cols * 4:
            raise FormatError(
                f"{path}: truncated cache at offset {16 + len(payload)}"
            )
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
