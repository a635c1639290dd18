"""Sliding windows over the feature grid, week-based splits, and scaling.

Set-up counts time in grid steps. A window is its grid, first step, ``k`` and
horizons; its arrays, times and ISO weeks are worked out from the grid when
read. ``split_by_weeks`` labels each step of a grid once by its ISO (year,
week) and places that grid's windows by comparing the labels of their steps.
``apply_scaling`` returns a window of a small grid over the steps a window
reads, with its calendar rows and site attributes scaled.
"""

from __future__ import annotations

from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigError, DataError
from .frames import (
    FEATURE_COLUMNS,
    GRID_STEP_MIN,
    SCALED_COLUMNS,
    FeatureGrid,
    step_calendar,
)

__all__ = [
    "WindowSample",
    "apply_scaling",
    "compute_scaling",
    "make_windows",
    "split_by_weeks",
    "step_positions",
    "week_label",
    "week_spec",
    "weeks_conflict",
]


class WindowSample:
    """K input grid steps and the occupancy targets at each requested horizon.

    A window holds its ``grid``, ``first_step``, ``k`` and ``horizons`` and
    nothing else: it works out its K x n x 8 ``inputs``
    (``FeatureGrid.block``), its n x |horizons| ``targets``, its
    ``anchor_time``, its ``target_times`` and its ``weeks`` from the grid
    each time they are read, as read-only arrays. ``weeks`` holds the ISO
    (year, week) labels of every grid step the window touches, inputs and
    targets alike, so split logic can keep whole windows on one side of a
    boundary.
    """

    __slots__ = ("grid", "first_step", "k", "horizons")

    def __init__(self, grid: FeatureGrid, first_step: int, k: int, horizons: tuple[int, ...]):
        self.grid = grid
        self.first_step = first_step
        self.k = k
        self.horizons = horizons

    def _target_steps(self) -> np.ndarray:
        return np.add(self.first_step + self.k - 1, self.horizons)

    @property
    def inputs(self) -> np.ndarray:  # K x n x 8
        out = self.grid.block(self.first_step, self.k)
        out.flags.writeable = False
        return out

    @property
    def targets(self) -> np.ndarray:  # n x |horizons|
        out = np.ascontiguousarray(self.grid.occupancy[self._target_steps()].T)
        out.flags.writeable = False
        return out

    @property
    def anchor_time(self) -> datetime:
        return self.grid.time(self.first_step + self.k - 1)

    @property
    def target_times(self) -> tuple[datetime, ...]:
        return tuple(self.grid.time(c) for c in self._target_steps().tolist())

    @property
    def weeks(self) -> frozenset:
        steps = [*range(self.first_step, self.first_step + self.k),
                 *self._target_steps().tolist()]
        return frozenset(self.grid.time(c).isocalendar()[:2] for c in steps)


def make_windows(grid: FeatureGrid, k: int, horizons: Sequence[int],
                 grid_step_min: int = GRID_STEP_MIN) -> list[WindowSample]:
    """Stride-1 windows over maximal runs of valid grid steps.

    A run of F steps yields F - k - max(horizons) + 1 samples; no window
    spans an invalid step. ``grid_step_min`` must equal the grid's own
    step. A grid that yields no window is a ``DataError``.
    """
    if k < 1:
        raise ConfigError(f"window length k must be >= 1, got {k}")
    horizons = tuple(sorted(set(int(h) for h in horizons)))
    if not horizons or horizons[0] < 1:
        raise ConfigError(f"horizons must be positive steps, got {horizons}")
    if grid_step_min != grid.step_min:
        raise ConfigError(f"windows asked for a {grid_step_min}-minute step, "
                          f"but the grid has {grid.step_min}-minute steps")
    max_h = horizons[-1]

    edges = np.diff(grid.valid.astype(np.int8), prepend=0, append=0)
    samples = [WindowSample(grid, s, k, horizons)
               for first, stop in zip(np.flatnonzero(edges == 1).tolist(),
                                      np.flatnonzero(edges == -1).tolist())
               for s in range(first, stop - k - max_h + 1)]
    if not samples:
        raise DataError(f"no usable windows: need at least {k + max_h} contiguous valid "
                        "grid steps")
    return samples


def week_spec(spec) -> tuple[int | None, int]:
    """Read an ISO week number, a (year, week) pair, or 'YYYY-Www' as (year or
    None, week); weeks run 1..53."""
    week = None
    try:
        if isinstance(spec, int) and not isinstance(spec, bool):
            week = (None, spec)
        elif isinstance(spec, (tuple, list)) and len(spec) == 2:
            week = (int(spec[0]), int(spec[1]))
        elif isinstance(spec, str) and len(parts := spec.upper().split("-W")) == 2:
            week = (int(parts[0]), int(parts[1]))
    except (TypeError, ValueError, OverflowError):  # a pair of non-numbers
        pass
    if week is None:
        raise ConfigError(f"bad week spec {spec!r}: use 3, (2024, 3), or '2024-W03'")
    if not 1 <= week[1] <= 53:
        raise ConfigError(f"week number {week[1]} outside 1..53")
    return week


def week_label(week: tuple[int, int]) -> str:
    """The 'YYYY-Www' label of an ISO (year, week) pair."""
    year, number = week
    return f"{year}-W{number:02d}"


def weeks_conflict(a: tuple[int | None, int], b: tuple[int | None, int]) -> bool:
    """Whether two read week specs (``week_spec``) can name the same ISO week."""
    if a[1] != b[1]:
        return False
    return a[0] is None or b[0] is None or a[0] == b[0]


def _window_buckets(grid: FeatureGrid, k: int, horizons: tuple[int, ...],
                    groups: list[list[tuple[int | None, int]]]) -> list[int]:
    """The split of the window at each first step of ``grid``, or -1 for none.

    Each step is labelled once by its ISO (year, week); a window falls in a
    split when every input step and target step carries that split's label.
    """
    calendar = step_calendar(grid.start, grid.step_min, len(grid.valid))
    weeks, week_of_step = np.unique(calendar[:, 0] * 100 + calendar[:, 1], return_inverse=True)
    labels = np.array([next((b for b, entries in enumerate(groups)
                             if any(weeks_conflict(divmod(w, 100), e) for e in entries)), -1)
                       for w in weeks.tolist()])[week_of_step]
    runs = np.concatenate([[0], np.cumsum(labels[1:] != labels[:-1])])
    first = np.arange(len(labels) - k - max(horizons) + 1)
    anchor = first + k - 1
    label = labels[first]
    same = (label >= 0) & (runs[first] == runs[anchor])
    for h in horizons:
        same &= labels[anchor + h] == label
    return np.where(same, label, -1).tolist()


def split_by_weeks(samples: Iterable[WindowSample],
                   train_weeks: Sequence, test_weeks: Sequence,
                   generality_weeks: Sequence = ()) -> tuple[
                       list[WindowSample], list[WindowSample], list[WindowSample]]:
    """Partition samples into train / test / generality by ISO week.

    A sample lands in a split only when every week it touches belongs to
    that split, so windows never straddle a boundary; straddlers are
    dropped. Week sets must not overlap. The windows of one grid, ``k`` and
    horizons are placed by one pass over the grid's step labels; every
    bucket keeps input order.
    """
    groups = [[week_spec(w) for w in ws]
              for ws in (train_weeks, test_weeks, generality_weeks)]
    for gi in range(3):
        for gj in range(gi + 1, 3):
            for a in groups[gi]:
                for b in groups[gj]:
                    if weeks_conflict(a, b):
                        raise ConfigError(
                            f"week {b[1]} assigned to more than one split")
    if not groups[0] or not groups[1]:
        raise ConfigError("train_weeks and test_weeks must both be non-empty")

    out: tuple[list[WindowSample], ...] = ([], [], [])
    placed: dict[tuple, tuple[FeatureGrid, list[int]]] = {}  # holds each grid for its id
    for sample in samples:
        key = (id(sample.grid), sample.k, sample.horizons)
        if key not in placed:
            placed[key] = (sample.grid, _window_buckets(sample.grid, sample.k,
                                                        sample.horizons, groups))
        b = placed[key][1][sample.first_step]
        if b >= 0:
            out[b].append(sample)
    return out


def step_positions(samples: Sequence[WindowSample]) -> np.ndarray:
    """Number each sample's K input steps so that shared steps share a number.

    Two samples share a step exactly when both are windows of the same grid
    holding the same grid step. Numbers rise with the grid step, and grids
    take disjoint ranges in order of first appearance, so visiting steps by
    increasing number takes every sample's lags in order. Returns a B x K
    int array.
    """
    offsets: dict[int, int] = {}
    end = 0
    out = []
    for s in samples:
        if id(s.grid) not in offsets:
            offsets[id(s.grid)] = end
            end += len(s.grid.valid)
        out.append(offsets[id(s.grid)] + s.first_step + np.arange(s.k))
    return np.array(out, dtype=np.int64) if out else np.zeros((0, 0), dtype=np.int64)


def compute_scaling(samples: Sequence[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """Per-column min and max over every input step of the given samples.

    A grid's calendar rows are read once for all its windows that cover
    them, and its site attributes once. Only the calendar/static columns are
    ever rescaled; the returned arrays still cover all 8 columns, with
    identity bounds (0, 1) on the untouched ones, so they can be stored and
    applied uniformly.
    """
    if not samples:
        raise DataError("compute_scaling: no samples")
    covered: dict[int, tuple[FeatureGrid, np.ndarray]] = {}
    for s in samples:
        steps = covered.setdefault(id(s.grid), (s.grid, np.zeros(len(s.grid.valid), bool)))[1]
        steps[s.first_step:s.first_step + s.k] = True
    lows, highs = [], []  # min and max of the columns before occupancy, per grid
    for grid, steps in covered.values():
        calendar = grid.calendar[steps]
        lows.append(np.concatenate([calendar.min(axis=0), grid.attributes.min(axis=0)]))
        highs.append(np.concatenate([calendar.max(axis=0), grid.attributes.max(axis=0)]))
    lo = np.zeros(len(FEATURE_COLUMNS))
    hi = np.ones(len(FEATURE_COLUMNS))
    cols = list(SCALED_COLUMNS)
    lo[cols] = np.min(lows, axis=0)[cols]
    hi[cols] = np.max(highs, axis=0)[cols]
    return lo, hi


def apply_scaling(sample: WindowSample, lo: np.ndarray, hi: np.ndarray) -> WindowSample:
    """The same window over a scaled copy of the grid steps it reads.

    The new grid starts at the window's first step and holds its k + max(h)
    steps: occupancy and validity as views, and those steps' calendar rows
    and every site's attributes copied and min-max scaled column by column
    (a zero span gives 0.0). Occupancy, and so the targets, stay raw.
    """
    grid, first = sample.grid, sample.first_step
    stop = first + sample.k + max(sample.horizons)
    calendar, attributes = np.array(grid.calendar[first:stop]), np.array(grid.attributes)
    width = calendar.shape[1]  # feature columns hold the calendar ids, then the attributes
    for c in SCALED_COLUMNS:
        column = calendar[:, c] if c < width else attributes[:, c - width]
        span = hi[c] - lo[c]
        column[:] = (column - lo[c]) / span if span > 0 else 0.0
    scaled = FeatureGrid(start=grid.time(first), step_min=grid.step_min,
                         occupancy=grid.occupancy[first:stop], calendar=calendar,
                         attributes=attributes, valid=grid.valid[first:stop])
    return WindowSample(scaled, 0, sample.k, sample.horizons)
