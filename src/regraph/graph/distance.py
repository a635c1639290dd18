"""Distance providers for site pairs.

The offline default is great-circle haversine. An HTTP routing service can
be substituted via ``REGRAPH_ROUTING_URL`` (so real driving distances flow
in without code changes), and either source can sit behind an on-disk CSV
cache selected by ``REGRAPH_DISTANCE_CACHE``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Protocol
from urllib.parse import urlencode, urlsplit

from ..errors import DataError

if TYPE_CHECKING:
    from .build import SiteMeta

__all__ = [
    "EARTH_RADIUS_MILES",
    "CachedProvider",
    "DistanceProvider",
    "HaversineProvider",
    "RoutingProvider",
    "default_provider",
    "haversine_miles",
]

EARTH_RADIUS_MILES = 3958.8


def haversine_miles(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in miles between two coordinate pairs."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(a)))


class DistanceProvider(Protocol):
    def miles(self, a: "SiteMeta", b: "SiteMeta") -> float: ...


class HaversineProvider:
    """Straight-line provider; needs nothing but the site coordinates."""

    def miles(self, a: "SiteMeta", b: "SiteMeta") -> float:
        return haversine_miles(a.latitude, a.longitude, b.latitude, b.longitude)


class RoutingProvider:
    """Driving distance from an HTTP service.

    Request: GET <base_url>?olat=&olon=&dlat=&dlon=
    Response: JSON object with a numeric "miles" field.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url
        self.timeout_s = timeout_s

    def miles(self, a: "SiteMeta", b: "SiteMeta") -> float:
        from urllib.request import urlopen  # loads ssl and http.client: about 7 MB
        query = urlencode({"olat": a.latitude, "olon": a.longitude,
                           "dlat": b.latitude, "dlon": b.longitude})
        try:
            url = urlsplit(self.base_url)
            if url.scheme not in ("http", "https"):
                raise ValueError(f"{self.base_url!r} is not an http or https URL")
            url = url._replace(query=f"{url.query}&{query}" if url.query else query)
            with urlopen(url.geturl(), timeout=self.timeout_s) as resp:
                return float(json.load(resp)["miles"])
        except Exception as exc:
            raise DataError(
                f"routing distance failed for pair ({a.site_id}, {b.site_id}): {exc}"
            ) from exc


class CachedProvider:
    """CSV-backed cache (``site_a,site_b,miles``) in front of another provider.

    Keys are unordered site-id pairs. Cache-file writes are serialized with
    a lock so concurrent lookups cannot interleave rows.
    """

    def __init__(self, inner: DistanceProvider, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()
        self._table: dict[tuple[str, str], float] = {}
        if self.path.exists():
            self._load()

    @staticmethod
    def _key(a: "SiteMeta", b: "SiteMeta") -> tuple[str, str]:
        return (a.site_id, b.site_id) if a.site_id <= b.site_id else (b.site_id, a.site_id)

    def _load(self) -> None:
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(reader.fieldnames) != {"site_a", "site_b", "miles"}:
                raise DataError(f"distance cache {self.path}: expected header site_a,site_b,miles")
            for row in reader:
                key = tuple(sorted((row["site_a"], row["site_b"])))
                self._table[key] = float(row["miles"])

    def miles(self, a: "SiteMeta", b: "SiteMeta") -> float:
        key = self._key(a, b)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        value = self.inner.miles(a, b)
        with self._lock:
            if key not in self._table:
                self._table[key] = value
                new_file = not self.path.exists()
                with open(self.path, "a", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    if new_file:
                        writer.writerow(["site_a", "site_b", "miles"])
                    writer.writerow([key[0], key[1], repr(value)])
        return value


def default_provider(env: dict[str, str] | None = None) -> DistanceProvider:
    """Provider selected by environment: routing URL and/or CSV cache."""
    env = os.environ if env is None else env
    provider: DistanceProvider
    url = env.get("REGRAPH_ROUTING_URL")
    provider = RoutingProvider(url) if url else HaversineProvider()
    cache = env.get("REGRAPH_DISTANCE_CACHE")
    if cache:
        provider = CachedProvider(provider, cache)
    return provider
