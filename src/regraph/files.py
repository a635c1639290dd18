"""Artifact files that are replaced whole or not at all."""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path

__all__ = ["atomic_open"]


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **open_kwargs):
    """Open a temp file beside ``path`` that replaces it when the block ends.

    ``mode`` is ``"w"`` or ``"wb"``; ``open_kwargs`` go to ``open``. If the
    block raises, the temp file is removed and ``path`` keeps its old
    contents. The data is not fsynced, so this guards against a failed or
    interrupted writer, not against a power loss.
    """
    path = Path(path)
    # Not tempfile.mkstemp: its files are owner-only, whatever the umask says.
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
