"""Raw occupancy record ingestion.

A record is one report of free spaces at a site. ``available`` may be
negative: sites overflow, trucks park on ramps and shoulders, and the
occupancy rate derived downstream is then legitimately above 1.
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


def load_records(path: str | Path) -> dict[str, np.ndarray]:
    """Read the records CSV into per-site ``RECORD_DTYPE`` streams.

    Streams come back sorted by timestamp with duplicates collapsed (the
    last row read for a given site and timestamp wins), so timestamps are
    strictly increasing per site. Blank lines are skipped; any other row
    must have exactly the three header fields.

    A timestamp is parsed only when its text differs from the previous
    row's, so the rows of one report time written together (as ``synth``
    writes every site of a grid step) parse it once.
    """
    columns: defaultdict[str, list[int]] = defaultdict(list)  # time_us, available, ...
    last_ts, time_us = None, 0  # the previous row's timestamp text, parsed
    with open_csv(path, RECORDS_HEADER, "records") as reader:
        for row in filter(None, reader):  # blank lines are empty rows
            try:
                site_id, raw_ts, raw_available = row  # exactly three fields
                if raw_ts != last_ts:
                    ts = datetime.fromisoformat(raw_ts)
                    if ts.tzinfo is not None:
                        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
                    since = ts - EPOCH  # whole microseconds as since // MICROSECOND, cheaper
                    time_us = ((since.days * 86_400 + since.seconds) * 1_000_000
                               + since.microseconds)
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
