"""Text normalization and character encoding for the text encoder."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusError

PAD_CHAR = "\x00"
DEFAULT_CHARS = PAD_CHAR + "abcdefghijklmnopqrstuvwxyz'.,?! " + "0123456789"


@dataclass(frozen=True)
class CharVocab:
    """Dense character index table; padding maps to index 0."""

    chars: str = DEFAULT_CHARS
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if not self.chars.startswith(PAD_CHAR):
            raise ValueError("vocabulary must start with the padding character")
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("vocabulary contains duplicate characters")
        object.__setattr__(
            self, "index", {c: i for i, c in enumerate(self.chars)}
        )

    def __len__(self) -> int:
        return len(self.chars)

    def __contains__(self, ch: str) -> bool:
        return ch in self.index


@dataclass(frozen=True)
class TextSequence:
    indices: np.ndarray  # int array, length N >= 1

    def __post_init__(self):
        if self.indices.size < 1:
            raise ValueError("text sequence must have at least one character")

    @property
    def length(self) -> int:
        return int(self.indices.size)


def normalize_text(raw: str, vocab: CharVocab | None = None) -> str:
    """Lowercase, replace out-of-vocabulary characters with space, collapse
    whitespace runs, strip.  Raises CorpusError if nothing survives."""
    vocab = vocab or CharVocab()
    lowered = raw.lower()
    mapped = "".join(c if c in vocab and c != PAD_CHAR else " " for c in lowered)
    collapsed = " ".join(mapped.split())
    if not collapsed:
        raise CorpusError(f"text {raw!r} is empty after normalization")
    return collapsed


def encode(text: str, vocab: CharVocab | None = None) -> TextSequence:
    """Map a normalized string to its index sequence (length preserved)."""
    vocab = vocab or CharVocab()
    if not text:
        raise CorpusError("cannot encode empty text")
    try:
        idx = np.array([vocab.index[c] for c in text], dtype=np.int64)
    except KeyError as e:
        raise CorpusError(f"character {e.args[0]!r} not in vocabulary") from e
    return TextSequence(idx)


def decode(seq: TextSequence, vocab: CharVocab | None = None) -> str:
    vocab = vocab or CharVocab()
    return "".join(vocab.chars[i] for i in seq.indices)
