"""Exception types shared across the toolkit.

Each type carries the CLI exit code it maps onto, a stable contract:
corpus/input problems -> 2, training aborts -> 3, checkpoint/config
compatibility -> 4, protocol mismatches -> 5.
"""


class MelforgeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class CorpusError(MelforgeError):
    """Corpus or input data is missing, malformed, or inconsistent."""


class FormatError(MelforgeError):
    """A file (cache, checkpoint, embedding store, WAV, config) is malformed."""


class CompatibilityError(MelforgeError):
    """Checkpoint/config hashes disagree and --force was not given."""

    exit_code = 4


class ProtocolError(MelforgeError):
    """Trial protocol and supplied scores/embeddings do not line up."""

    exit_code = 5


class TrainingAborted(MelforgeError):
    """Training hit a non-finite loss or gradient and stopped."""

    exit_code = 3
