"""Bundled deterministic toy corpus.

Two "speakers" speak ten shared texts drawn from the letters a-h plus
space and a terminal period.  Each character occupies exactly eight STFT
frames; letters are steady bin-centered tones (one mel band apiece, two
bands apart, speakers on interleaved registers) with short raised-cosine
onsets/offsets, and space/period are digital silence.  Bin-centered tones
through the Hann analysis window leak only one bin to each side, so the
normalized spectrogram targets are nearly binary, which keeps the
cross-entropy floor of the reconstruction losses low enough for overfit
runs to reach small absolute loss values.

Everything (audio, texts, speaker embeddings) is a pure function of the
seed, so tests and the CLI can rebuild byte-identical fixtures anywhere.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import dsp
from .corpus import EmbeddingStore, save_embeddings
from .fileio import atomic_write

SAMPLE_RATE = 22050
WIN = 1024
HOP = 256
FRAMES_PER_CHAR = 8
RAMP = 512
AMP = 0.9

# tone bins per speaker: interleaved registers, all in distinct mel bands
LETTERS = "abcdef"
SPEAKER_BINS = {
    "spk0": (216, 252, 296, 344, 400, 466),
    "spk1": (234, 274, 320, 372, 432, 500),
}

FIXTURE_TEXTS = (
    "ab c d.",
    "e f ba.",
    "c a ef.",
    "d cb e.",
    "f e ad.",
    "b df c.",
    "a e cf.",
    "d b fe.",
    "ce a b.",
    "f d ca.",
)

EMBED_DIM = 512


def _note(bin_idx: int, n_samples: int) -> np.ndarray:
    freq = bin_idx * SAMPLE_RATE / WIN
    t = np.arange(n_samples)
    env = np.ones(n_samples)
    ramp = np.hanning(2 * RAMP)
    env[:RAMP] = ramp[:RAMP]
    env[-RAMP:] = ramp[RAMP:]
    return AMP * env * np.sin(2.0 * np.pi * freq * t / SAMPLE_RATE)


def render_text(text: str, speaker: str) -> dsp.Waveform:
    """Synthesize one utterance: each character is FRAMES_PER_CHAR frames."""
    bins = SPEAKER_BINS[speaker]
    seg_len = FRAMES_PER_CHAR * HOP
    segments = []
    for ch in text:
        if ch in LETTERS:
            segments.append(_note(bins[LETTERS.index(ch)], seg_len))
        else:  # space, period: silence
            segments.append(np.zeros(seg_len))
    return dsp.Waveform(np.concatenate(segments), SAMPLE_RATE)


def speaker_center(speaker: str, seed: int = 0) -> np.ndarray:
    key = int.from_bytes(speaker.encode("utf-8"), "little") % (2**31)
    rng = np.random.default_rng([seed, key])
    v = rng.standard_normal(EMBED_DIM)
    return (v / np.linalg.norm(v)).astype(np.float32)


def write_fixture_corpus(root, seed: int = 0) -> Path:
    """Write the 2-speaker / 20-utterance corpus plus its embedding store.

    Layout: root/<speaker>/<speaker>_<idx>.wav + .txt, root/embeddings.mfem
    with speaker-level and per-utterance entries.
    """
    root = Path(root)
    store = EmbeddingStore(EMBED_DIM)
    rng = np.random.default_rng(seed)
    for speaker in sorted(SPEAKER_BINS):
        spk_dir = root / speaker
        spk_dir.mkdir(parents=True, exist_ok=True)
        center = speaker_center(speaker, seed)
        store.add(speaker, center)
        for i, text in enumerate(FIXTURE_TEXTS):
            utt_id = f"{speaker}_{i:03d}"
            wave = render_text(text, speaker)
            dsp.write_wav(wave, spk_dir / f"{utt_id}.wav")
            with atomic_write(spk_dir / f"{utt_id}.txt") as f:
                f.write(text)
            jitter = 0.05 * rng.standard_normal(EMBED_DIM).astype(np.float32)
            store.add(utt_id, center + jitter)
    save_embeddings(store, root / "embeddings.mfem")
    return root
