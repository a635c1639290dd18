"""Raw occupancy record ingestion.

A record is one report of free spaces at a site. ``available`` may be
negative: sites overflow, trucks park on ramps and shoulders, and the
occupancy rate derived downstream is then legitimately above 1.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from ..errors import DataError
from ..files import open_csv

__all__ = ["RECORDS_HEADER", "SiteRecord", "load_records"]

RECORDS_HEADER = ["site_id", "timestamp_iso8601", "available"]


class SiteRecord(NamedTuple):
    site_id: str
    timestamp: datetime  # naive UTC
    available: int


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def load_records(path: str | Path) -> dict[str, list[SiteRecord]]:
    """Read the records CSV into per-site streams.

    Streams come back sorted by timestamp with duplicates collapsed (the
    last row read for a given site and timestamp wins), so timestamps are
    strictly increasing per site. Blank lines are skipped; any other row
    must have exactly the three header fields.
    """
    latest: dict[str, dict[datetime, int]] = {}
    with open_csv(path, RECORDS_HEADER, "records") as reader:
        for row in reader:
            if not row:
                continue
            try:
                site_id, raw_ts, raw_available = row  # exactly three fields
                ts = _parse_timestamp(raw_ts)
                available = int(raw_available)
            except ValueError as exc:
                raise DataError(f"records file {path} line {reader.line_num}: {exc}") from exc
            if not site_id:
                raise DataError(f"records file {path} line {reader.line_num}: empty site_id")
            latest.setdefault(site_id, {})[ts] = available

    return {site_id: [SiteRecord(site_id, ts, available)
                      for ts, available in sorted(by_time.items())]
            for site_id, by_time in latest.items()}
