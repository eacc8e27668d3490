"""Whole-file writes that a crash cannot leave half done, bounded binary
reads, and UTF-8 reads.

Every file the toolkit writes (caches, stores, manifests, checkpoints,
configs, reports, CSVs, WAVs and the fixture corpus) goes through
``atomic_write``; only the append-only training log does not.  Caches,
checkpoints and embedding stores are read through ``BinaryReader``.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import FormatError

_serial = itertools.count()  # next() on it is atomic under the GIL


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file next to ``path`` for writing and rename it over
    ``path`` once the block exits cleanly; if the block raises, remove it.
    A crash leaves the old file or the new one, never a part.

    The temporary name carries the process id and a per-process counter, so
    threads writing files of one directory never share one.  Text mode
    defaults to UTF-8.
    """
    path = Path(path)
    if "b" not in mode:
        open_kwargs.setdefault("encoding", "utf-8")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_serial)}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``; other bytes raise ``error``, naming the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise error(f"{path}, line {line}: not UTF-8 text ({e.reason})") from e


class BinaryReader:
    """A binary file read in pieces, each checked against the bytes left.

    The size is taken once, at open (writers replace files by rename, so an
    open file keeps it).  A read asking for more than is left raises
    `FormatError` naming the file, what was being read (``what % args``,
    formatted only then) and its offset, before anything is allocated.
    """

    def __init__(self, path):
        self.path = path
        self._f = open(path, "rb")
        self._size = os.fstat(self._f.fileno()).st_size
        self.offset = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def read(self, n: int, what: str, *args) -> bytes:
        end = self.offset + n
        if end > self._size:
            raise FormatError(
                f"{self.path}: truncated {what % args} at offset {self.offset}"
                f" ({n} bytes wanted, {self._size - self.offset} left)"
            )
        self.offset = end
        return self._f.read(n)
