"""CSV input files read row by row, JSON documents read whole, and artifact
files that are replaced whole or not at all."""

from __future__ import annotations

import contextlib
import csv
import json
import os
from pathlib import Path

from .errors import DataError

__all__ = ["atomic_open", "json_object", "open_csv", "read_json", "stored", "write_json",
           "write_lines"]


@contextlib.contextmanager
def open_csv(path, header: list[str], kind: str):
    """A ``csv.reader`` over a UTF-8 file, positioned after its ``header`` row.

    A file that cannot be opened or decoded, a wrong header, a row the
    ``csv`` module rejects, or a number too large for a 64-bit array while
    the block reads raises ``DataError`` naming the ``kind`` of file.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {kind} file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first != header:
                raise DataError(f"{kind} file {path}: expected header "
                                f"{','.join(header)}, got {first}")
            yield reader
        except (csv.Error, OverflowError, UnicodeDecodeError) as exc:
            raise DataError(f"{kind} file {path}: {exc}") from exc


@contextlib.contextmanager
def stored(what: str):
    """Report a stored document that lacks the expected layout as a DataError."""
    try:
        yield
    except DataError:
        raise
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def json_object(raw: bytes, what: str) -> dict:
    """The JSON object UTF-8 ``raw`` holds; else a DataError that starts with ``what``."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what}: not a JSON object")
    return doc


def read_json(path, kind: str) -> dict:
    """The JSON object in a file; a DataError names the ``kind`` of file and its path."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from exc
    return json_object(raw, f"{kind} {path}")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **open_kwargs):
    """Open a temp file beside ``path`` that replaces it when the block ends.

    ``mode`` is ``"w"`` or ``"wb"``; ``open_kwargs`` go to ``open``. The
    parent directory is made when it is missing. If anything on the way
    raises, the temp file is removed and ``path`` keeps its old contents;
    an ``OSError`` (making the directory, opening, the block's writes, the
    replace) becomes a ``DataError`` that names ``path``. The data is not
    fsynced, so this guards against a failed or interrupted writer, not
    against a power loss.
    """
    path = Path(path)
    # Not tempfile.mkstemp: its files are owner-only, whatever the umask says.
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_lines(path, lines) -> None:
    """Write a text artifact, each line followed by a newline, replaced atomically."""
    with atomic_open(path, encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def write_json(path, doc) -> None:
    """Write a JSON artifact: indent 2, sorted keys, a trailing newline, replaced atomically."""
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
