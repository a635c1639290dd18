"""Features of every site on a uniform time grid.

Each feature is stored once, at its own resolution: occupancy per (step,
site), the week, day and hour ids per step, and the travel time, owner,
amenity count and capacity per site. ``FeatureGrid.block`` assembles the
n x 8 feature matrices of consecutive steps, columns [week_id, day_id,
hour_id, travel_time, owner, amenity, capacity, occupancy_rate]. Occupancy
is (capacity - available) / capacity; values above 1 are over-capacity and
kept as-is. Missing grid points between two known neighbors are filled with
their average; runs longer than ``max_gap`` grid steps invalidate the
affected steps instead of fabricating a bridge. Calendar ids are recomputed
from the grid timestamp, not copied from the nearest record: ``step_calendar``
counts each step's time of day in whole microseconds from ``start`` and asks
``date.isocalendar`` once per distinct day, never building a step's datetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Mapping, Sequence

import numpy as np

from ..errors import DataError
from ..graph.build import SiteMeta
from .ingest import EPOCH, MICROSECOND, RECORD_DTYPE

__all__ = ["FEATURE_COLUMNS", "GRID_STEP_MIN", "MAX_GAP_STEPS", "OCCUPANCY_COL", "SCALED_COLUMNS",
           "FeatureGrid", "interpolate_to_grid", "occupancy_rate", "step_calendar"]

FEATURE_COLUMNS = ["week_id", "day_id", "hour_id", "travel_time",
                   "owner", "amenity", "capacity", "occupancy_rate"]

OCCUPANCY_COL = 7
SCALED_COLUMNS = (0, 1, 2, 3, 5, 6)  # owner is already 0/1, occupancy stays raw
GRID_STEP_MIN = 10  # default grid spacing, minutes
MAX_GAP_STEPS = 6  # default longest gap bridged, grid steps
GRID_CELLS_PER_RECORD = 64  # most (step, site) cells a grid may hold per record read


def occupancy_rate(capacity, available):
    """Fraction of capacity in use; above 1 when a site has overflowed.

    Works elementwise on arrays as well as on scalars.
    """
    capacity, available = np.broadcast_arrays(capacity, available)
    rate = (capacity - available) / capacity
    below = np.flatnonzero(rate < 0)
    if below.size:
        i = below[0]
        raise DataError(f"occupancy below zero: capacity={capacity.flat[i]}, "
                        f"available={available.flat[i]}")
    return rate


def step_calendar(start: datetime, step_min: int, steps: int) -> np.ndarray:
    """ISO year, ISO week, weekday and hour of ``steps`` grid steps from ``start``.

    Returns a steps x 4 int array whose row c equals ``isocalendar()[:2]``,
    ``weekday()`` and ``hour`` of ``start + c * step_min`` minutes.
    """
    midnight = start.replace(hour=0, minute=0, second=0, microsecond=0)
    since = (start - midnight) // MICROSECOND + np.arange(steps, dtype=np.int64) * (
        step_min * 60_000_000)
    day, time_of_day = np.divmod(since, 86_400_000_000)  # microseconds a day
    days, day_of_step = np.unique(day, return_inverse=True)
    iso = np.array([(start.date() + timedelta(days=d)).isocalendar() for d in days.tolist()],
                   dtype=np.int64).reshape(-1, 3)
    out = np.empty((steps, 4), dtype=np.int64)
    out[:, :2] = iso[day_of_step, :2]
    out[:, 2] = iso[day_of_step, 2] - 1  # ISO weekdays run 1..7 from Monday
    out[:, 3] = time_of_day // 3_600_000_000
    return out


@dataclass(frozen=True)
class FeatureGrid:
    """Every site's features at every grid step from ``start`` on.

    ``occupancy[t]`` holds the n sites' occupancy rates at step ``t``, taken
    at ``time(t)``, and ``calendar[t]`` its week, day and hour ids;
    ``attributes[i]`` holds site i's travel time, owner, amenity count and
    capacity. ``valid[t]`` is true when every site has a known or fillable
    occupancy there; windowing skips the other steps. Every array is
    read-only.
    """

    start: datetime
    step_min: int
    occupancy: np.ndarray = field(repr=False)   # T x n
    calendar: np.ndarray = field(repr=False)    # T x 3
    attributes: np.ndarray = field(repr=False)  # n x 4
    valid: np.ndarray = field(repr=False)       # T

    def __post_init__(self):
        steps, n = len(self.valid), len(self.attributes)
        shapes = (self.occupancy.shape, self.calendar.shape, self.attributes.shape,
                  self.valid.shape)
        if shapes != ((steps, n), (steps, 3), (n, 4), (steps,)):
            raise DataError(
                f"feature grid: expected T x n occupancy, T x 3 calendar ids, n x 4 site "
                f"attributes and T validity flags, got shapes {', '.join(map(str, shapes))}")
        for array in (self.occupancy, self.calendar, self.attributes, self.valid):
            array.flags.writeable = False

    def time(self, cell: int) -> datetime:
        return self.start + cell * timedelta(minutes=self.step_min)

    def block(self, first: int, k: int) -> np.ndarray:
        """The k x n x 8 features of steps ``first`` to ``first + k - 1``, a new array.

        Columns follow ``FEATURE_COLUMNS``.
        """
        if not 0 <= first <= first + k <= len(self.valid):
            raise DataError(f"feature grid: steps {first} to {first + k - 1} "
                            f"outside 0 to {len(self.valid) - 1}")
        out = np.empty((k, len(self.attributes), len(FEATURE_COLUMNS)))
        out[:, :, :3] = self.calendar[first:first + k, None, :]
        out[:, :, 3:7] = self.attributes
        out[:, :, OCCUPANCY_COL] = self.occupancy[first:first + k]
        return out


def interpolate_to_grid(records: Mapping[str, np.ndarray],
                        sites: Sequence[SiteMeta],
                        grid_step_min: int = GRID_STEP_MIN,
                        max_gap: int = MAX_GAP_STEPS) -> FeatureGrid:
    """Resample per-site ``RECORD_DTYPE`` streams onto a shared uniform grid.

    The grid spans the data. A step is valid only when every site has a
    known or fillable occupancy there; steps inside gaps wider than
    ``max_gap`` steps, or outside a site's observed range, are marked
    invalid so windowing skips them. When several records of a site fall
    in one grid step, the last one in stream order wins. A grid of more than
    ``GRID_CELLS_PER_RECORD`` (step, site) cells per record is a ``DataError``.
    """
    if grid_step_min <= 0:
        raise DataError(f"grid_step_min must be positive, got {grid_step_min}")
    step = timedelta(minutes=grid_step_min)
    step_us = step // MICROSECOND

    known_ids = {s.site_id for s in sites}
    for site_id in records:
        if site_id not in known_ids:
            raise DataError(f"records reference site {site_id} absent from site metadata")

    n = len(sites)
    counts = np.array([len(records.get(s.site_id, ())) for s in sites], dtype=np.int64)
    # the sites before the first with too few records, whose errors a site-by-site pass meets first
    upto = next((k for k, count in enumerate(counts.tolist()) if count < 2), n)
    streams = [records[s.site_id] for s in sites[:upto]] or [np.zeros(0, RECORD_DTYPE)]
    rate = occupancy_rate(np.repeat([s.capacity for s in sites[:upto]], counts[:upto]),
                          np.concatenate([st["available"] for st in streams]))
    if upto < n:
        raise DataError(f"site {sites[upto].site_id}: need at least 2 records, got {counts[upto]}")

    cells = np.concatenate([st["time_us"] for st in streams]) // step_us
    first_cell = int(cells.min())
    n_cells = int(cells.max()) - first_cell + 1
    grid_start = EPOCH + first_cell * step
    if n_cells * n > GRID_CELLS_PER_RECORD * cells.size:
        raise DataError(f"records span {grid_start} to {grid_start + (n_cells - 1) * step}: "
                        f"{n_cells} grid steps x {n} sites is over {GRID_CELLS_PER_RECORD} "
                        f"cells per record for {cells.size} records")
    # Keep the last record of each (site, cell) in stream order. Keys that rise
    # strictly (at most one record per site and step) are each their own last;
    # otherwise a record is the last of its run once sorted stably.
    site_of = np.repeat(np.arange(n), counts)
    key = site_of * n_cells + (cells - first_cell)
    if not np.all(key[1:] > key[:-1]):
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        last = order[np.append(ranked[1:] != ranked[:-1], True)]
        cells, site_of, rate = cells[last], site_of[last], rate[last]
    flat = (cells - first_cell) * n + site_of
    # A gap of at most max_gap steps between two kept records of one site is
    # filled with their average.
    width = np.diff(cells) - 1
    bridged = np.flatnonzero((width > 0) & (width <= max_gap) & (site_of[1:] == site_of[:-1]))
    width = width[bridged]
    step_in_gap = np.arange(1, width.sum() + 1) - np.repeat(np.cumsum(width) - width, width)
    filled = np.repeat(flat[bridged], width) + n * step_in_gap
    occ = np.zeros((n_cells, n))
    covered = np.zeros((n_cells, n), dtype=bool)
    occ.ravel()[flat] = rate
    occ.ravel()[filled] = np.repeat((rate[bridged] + rate[bridged + 1]) / 2.0, width)
    covered.ravel()[flat] = True
    covered.ravel()[filled] = True

    calendar = step_calendar(grid_start, grid_step_min, n_cells)[:, 1:].astype(float)
    attributes = np.array([[s.travel_time, s.owner, s.amenity_count, s.capacity]
                           for s in sites], dtype=float)
    return FeatureGrid(start=grid_start, step_min=grid_step_min, occupancy=occ,
                       calendar=calendar, attributes=attributes,
                       valid=covered.all(axis=1))
