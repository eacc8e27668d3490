"""Exception types shared across the toolkit.

The CLI maps these onto its stable exit codes: corpus/input problems -> 2,
training aborts -> 3, checkpoint/config compatibility -> 4, protocol
mismatches -> 5.
"""


class MelforgeError(Exception):
    """Base class for all toolkit errors."""


class CorpusError(MelforgeError):
    """Corpus or input data is missing, malformed, or inconsistent."""


class FormatError(MelforgeError):
    """A file (cache, checkpoint, embedding store, WAV, config) is malformed."""


class CompatibilityError(MelforgeError):
    """Checkpoint/config hashes disagree and --force was not given."""


class ProtocolError(MelforgeError):
    """Trial protocol and supplied scores/embeddings do not line up."""


class TrainingAborted(MelforgeError):
    """Training hit a non-finite loss or gradient and stopped."""
