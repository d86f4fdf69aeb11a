"""Whole-file writes: a file appears under its final name complete or not at all.

``atomic_open`` writes to a fresh temporary file in the target's
directory and renames it over the target only after the writing block
finishes.  If the block raises, the temporary file is removed and the
target is left as it was.  The rename is atomic because both names are
in the same directory, hence on the same file system.  Nothing is
synced to disk: this guards against a process that dies mid-write, not
against a power loss.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing, replacing ``path`` only on success.

    ``mode`` is "w" or "wb".  The temporary file is created exclusively
    with the process's default permissions, as a plain ``open`` would.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
