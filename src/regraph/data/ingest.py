"""Raw occupancy record ingestion.

A record is one report of free spaces at a site. ``available`` may be
negative: sites overflow, trucks park on ramps and shoulders, and the
occupancy rate derived downstream is then legitimately above 1.

A plain records file is read as byte columns, a block of whole lines at a
time; any other file goes through the ``csv`` module row by row. Both give
the same streams and raise the same errors, and the row loop is the one
that names a malformed line.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..files import open_csv

__all__ = ["EPOCH", "MICROSECOND", "RECORDS_HEADER", "RECORD_DTYPE", "load_records"]

RECORDS_HEADER = ["site_id", "timestamp_iso8601", "available"]
EPOCH = datetime(1970, 1, 1)  # naive UTC; a record's time_us counts from it
MICROSECOND = timedelta(microseconds=1)
RECORD_DTYPE = np.dtype([("time_us", np.int64), ("available", np.int64)])

BLOCK_BYTES = 1 << 20  # the columns path reads the file this much at a time
FIELD_BYTES = 64  # the longest site id or timestamp the columns path takes
DIGITS = 18  # the most digits of an `available` it takes: 10**18 - 1 fits in int64
_HEADER_LINES = tuple(",".join(RECORDS_HEADER).encode() + end for end in (b"\n", b"\r\n"))
_LINE_BYTES = 2 * FIELD_BYTES + DIGITS + 4  # two commas, a sign and a "\r" besides
# the low k bytes of a little-endian word, for k = 0..8
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def load_records(path: str | Path) -> dict[str, np.ndarray]:
    """Read the records CSV into per-site ``RECORD_DTYPE`` streams.

    Streams come back sorted by timestamp with duplicates collapsed (the
    last row read for a given site and timestamp wins), so timestamps are
    strictly increasing per site, keyed in the order sites first appear.
    Blank lines are skipped; any other row must have exactly the three
    header fields.

    A timestamp is parsed only when its text differs from the previous
    row's, so the rows of one report time written together (as ``synth``
    writes every site of a grid step) parse it once.
    """
    streams = _read_columns(path)
    return _read_rows(path) if streams is None else streams


def _time_us(text: str) -> int:
    """Whole UTC microseconds since ``EPOCH`` of an ISO 8601 timestamp; naive is UTC."""
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    since = ts - EPOCH  # whole microseconds as since // MICROSECOND, cheaper
    return (since.days * 86_400 + since.seconds) * 1_000_000 + since.microseconds


def _read_rows(path) -> dict[str, np.ndarray]:
    """``load_records`` through the ``csv`` module, one row at a time: any file."""
    columns: defaultdict[str, list[int]] = defaultdict(list)  # time_us, available, ...
    last_ts, time_us = None, 0  # the previous row's timestamp text, parsed
    with open_csv(path, RECORDS_HEADER, "records") as reader:
        for row in filter(None, reader):  # blank lines are empty rows
            try:
                site_id, raw_ts, raw_available = row  # exactly three fields
                if raw_ts != last_ts:
                    time_us = _time_us(raw_ts)
                    last_ts = raw_ts
                columns[site_id].extend((time_us, int(raw_available)))
            except ValueError as exc:
                raise DataError(f"records file {path} line {reader.line_num}: {exc}") from exc
            if not site_id:
                raise DataError(f"records file {path} line {reader.line_num}: empty site_id")
        streams = {}
        for site_id, column in columns.items():
            rows = np.array(column, dtype=np.int64).view(RECORD_DTYPE)
            _, from_end = np.unique(rows["time_us"][::-1], return_index=True)  # last read wins
            streams[site_id] = rows[rows.size - 1 - from_end]
    return streams


def _read_columns(path) -> dict[str, np.ndarray] | None:
    """``load_records`` of a plain records file, read as byte columns; else None.

    A plain file is UTF-8 with no ``"``, no NUL and no ``\\r`` outside a
    ``\\r\\n``; its first line is the exact header, and every other line is
    blank or holds a site id and a timestamp of 1 to ``FIELD_BYTES`` bytes
    and an ``available`` matching ``-?[0-9]{1,DIGITS}``, comma-separated.
    The one error raised here is a timestamp that does not parse, and only
    once the whole file has proved plain, so it is the row loop's error.
    """
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        if fh.readline(len(_HEADER_LINES[1])) not in _HEADER_LINES:
            return None
        columns, tail = _Columns(), b""
        while chunk := fh.read(BLOCK_BYTES):
            buf = tail + chunk
            del chunk
            cut = buf.rfind(b"\n") + 1
            tail = buf[cut:]
            if len(tail) > _LINE_BYTES or (cut and not columns.add(buf, cut)):
                return None
        # the last line may lack its newline
        if tail and (tail.endswith(b"\r") or not columns.add(tail + b"\n", len(tail) + 1)):
            return None
    if columns.error is not None:
        line, exc = columns.error
        raise DataError(f"records file {path} line {line}: {exc}") from exc
    return columns.streams()


class _Columns:
    """The rows of a plain records file, taken a block of whole lines at a time."""

    def __init__(self):
        self.line = 2  # the file line a block starts at; line 1 is the header
        self.sites: dict[bytes, int] = {}  # site id bytes -> code, in order of appearance
        self.codes: list[np.ndarray] = []  # per block: site code, time_us, available
        self.times: list[np.ndarray] = []
        self.available: list[np.ndarray] = []
        self.last_text, self.last_time = None, 0  # the previous row's timestamp, parsed
        self.error: tuple[int, Exception] | None = None  # (line, error) of a bad timestamp

    def add(self, buf: bytes, end: int) -> bool:
        """Take the lines of ``buf[:end]``, each ending in ``\\n``; False if they are not plain."""
        if buf.find(b'"', 0, end) >= 0 or buf.find(b"\0", 0, end) >= 0:
            return False
        if not buf.isascii():
            try:
                str(memoryview(buf)[:end], "utf-8")
            except UnicodeDecodeError:
                return False
        a = np.zeros(end + FIELD_BYTES, np.uint8)  # a field-wide read may run past the end
        a[:end] = np.frombuffer(buf, np.uint8, end)
        ends = np.flatnonzero(a == 10)  # each line's newline, then its "\r" if it has one
        starts = np.concatenate(([0], ends[:-1] + 1))
        crlf = a[ends - 1] == 13
        if np.count_nonzero(crlf) != np.count_nonzero(a == 13):
            return False
        ends -= crlf
        first_line, self.line = self.line, self.line + len(ends)
        rows = ends > starts  # not blank
        starts, ends = starts[rows], ends[rows]
        commas = np.flatnonzero(a == 44)
        if len(commas) != 2 * len(starts):
            return False
        if not len(starts):
            return True
        # two commas a row in all: each row has its own two when no field is empty
        site_end, time_end = commas[0::2], commas[1::2]
        site_len, time_len = site_end - starts, time_end - site_end - 1
        if (min(site_len.min(), time_len.min()) < 1
                or max(site_len.max(), time_len.max()) > FIELD_BYTES):
            return False
        available = _decimals(a, time_end + 1, ends)
        if available is None:
            return False
        codes = self._site_codes(buf, a, starts, site_end)
        times = self._times(buf, a, site_end + 1, time_end,
                            lambda row: first_line + int(np.flatnonzero(rows)[row]))
        if times is None:
            return False
        self.codes.append(codes)
        self.times.append(times)
        self.available.append(available)
        return True

    def _site_codes(self, buf, a, starts, ends) -> np.ndarray:
        """Each row's site code, grouping the rows by site id bytes first."""
        keys = _words(a, starts, ends - starts)
        order = np.lexsort(keys[::-1])
        new = np.ones(len(order), bool)
        new[1:] = _changes(keys[:, order])
        group = np.empty(len(order), np.intp)
        group[order] = np.cumsum(new) - 1
        firsts = order[new]  # the first row of each group: the sort is stable
        code_of = np.empty(len(firsts), np.int32)
        for g in np.argsort(firsts).tolist():  # a new site takes the next code
            row = firsts[g]
            code_of[g] = self.sites.setdefault(buf[starts[row]:ends[row]], len(self.sites))
        return code_of[group]

    def _times(self, buf, a, starts, ends, line_of) -> np.ndarray | None:
        """Each row's time_us, parsing each run of equal text once; None on an overflow.

        Runs continue across blocks. After the first timestamp that does not
        parse, none is parsed and ``error`` names that one's line.
        """
        new = np.empty(len(starts), bool)
        new[1:] = _changes(_words(a, starts, ends - starts))
        new[0] = buf[starts[0]:ends[0]] != self.last_text
        run_times = [self.last_time]
        for row in np.flatnonzero(new).tolist():
            if self.error is None:
                try:
                    self.last_time = _time_us(buf[starts[row]:ends[row]].decode())
                except ValueError as exc:
                    self.error = (line_of(row), exc)
                except OverflowError:  # the row loop reports it without a line
                    return None
            run_times.append(self.last_time)
        self.last_text = buf[starts[-1]:ends[-1]]
        return np.array(run_times, np.int64)[np.cumsum(new)]

    def streams(self) -> dict[str, np.ndarray]:
        """Per-site streams: one stable sort on (site, time), the last row read wins."""
        if not self.sites:
            return {}
        codes, self.codes = np.concatenate(self.codes), []
        times, self.times = np.concatenate(self.times), []
        available, self.available = np.concatenate(self.available), []
        # one column at a time, so that no more than one is held twice
        order = np.lexsort((times, codes))
        codes = codes[order]
        times = times[order]
        available = available[order]
        del order
        last = np.ones(len(codes), bool)
        last[:-1] = (codes[1:] != codes[:-1]) | (times[1:] != times[:-1])
        if not last.all():
            codes = codes[last]
            times = times[last]
            available = available[last]
        rows = np.empty(len(codes), RECORD_DTYPE)
        rows["time_us"] = times
        del times
        rows["available"] = available
        del available
        bounds = np.searchsorted(codes, np.arange(1, len(self.sites)))
        return dict(zip((site.decode() for site in self.sites), np.split(rows, bounds)))


def _decimals(a: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Fields of ``a`` matching ``-?[0-9]{1,DIGITS}`` as int64s; None if one does not."""
    neg = a[starts] == 45
    starts = starts + neg
    n_digits = ends - starts
    if n_digits.min() < 1 or n_digits.max() > DIGITS:
        return None
    digits = _fields(a, starts, int(n_digits.max())) - np.uint8(48)
    value = np.zeros(len(starts), np.int64)
    for j in range(digits.shape[1]):
        inside = j < n_digits
        if (inside & (digits[:, j] > 9)).any():
            return None
        value = np.where(inside, value * 10 + digits[:, j], value)
    value[neg] *= -1
    return value


def _fields(a: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``a`` from each of ``starts``: rows x width."""
    at = np.ndarray((len(a) - width + 1,), f"V{width}", a, strides=(1,))  # every offset
    return at[starts].view(np.uint8).reshape(len(starts), width)


def _words(a: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Fields of ``a`` as little-endian 8-byte words, zero past each field's end.

    Word ``k`` of every field is row ``k``. ``a`` has ``FIELD_BYTES`` bytes to
    spare at its end. With no NUL byte in the file, equal columns are equal
    fields.
    """
    n_words = -(-int(lengths.max()) // 8)
    words = _fields(a, starts, 8 * n_words).view("<u8").T
    for k in range(int(lengths.min()) // 8, n_words):  # the words some field ends in
        words[k] &= _BYTE_MASKS[np.clip(lengths - 8 * k, 0, 8)]
    return words


def _changes(words: np.ndarray) -> np.ndarray:
    """For each field of ``_words`` after the first: does it differ from the one before?"""
    return np.logical_or.reduce(words[:, 1:] != words[:, :-1], axis=0)
