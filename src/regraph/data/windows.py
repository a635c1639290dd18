"""Sliding windows over the feature grid, week-based splits, and scaling."""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigError, DataError
from .frames import FEATURE_COLUMNS, GRID_STEP_MIN, OCCUPANCY_COL, SCALED_COLUMNS, FeatureGrid

__all__ = [
    "WindowSample",
    "apply_scaling",
    "compute_scaling",
    "make_windows",
    "split_by_weeks",
    "step_positions",
    "week_label",
]


@dataclass(frozen=True)
class WindowSample:
    """K input grid steps and the occupancy targets at each requested horizon.

    ``weeks`` holds the ISO (year, week) labels of every grid step the
    sample touches, inputs and targets alike, so split logic can keep whole
    windows on one side of a boundary. ``first_step`` is the grid row of
    ``inputs[0]`` when ``inputs`` is a view of a grid's rows; windows viewing
    the same grid row share that step (see ``step_positions``).
    """

    inputs: np.ndarray = field(repr=False)   # K x n x 8
    targets: np.ndarray = field(repr=False)  # n x T
    anchor_time: datetime
    target_times: tuple[datetime, ...]
    horizons: tuple[int, ...]
    weeks: frozenset = field(repr=False)
    first_step: int | None = None

    def __post_init__(self):
        self.inputs.flags.writeable = False
        self.targets.flags.writeable = False


def make_windows(grid: FeatureGrid, k: int, horizons: Sequence[int],
                 grid_step_min: int = GRID_STEP_MIN) -> list[WindowSample]:
    """Stride-1 windows over maximal runs of valid grid steps.

    A run of F steps yields F - k - max(horizons) + 1 samples; no window
    spans an invalid step. Each sample's inputs are a read-only view into
    ``grid.X``. ``grid_step_min`` must equal the grid's own step.
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

    times = [grid.time(c) for c in range(len(grid.valid))]
    weeks = [t.isocalendar()[:2] for t in times]
    occupancy = np.ascontiguousarray(grid.X[:, :, OCCUPANCY_COL].T)  # n x T
    offsets = np.array(horizons)
    edges = np.diff(grid.valid.astype(np.int8), prepend=0, append=0)
    samples: list[WindowSample] = []
    for first, stop in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        for s in range(first, stop - k - max_h + 1):
            anchor = s + k - 1
            target_cells = anchor + offsets
            samples.append(WindowSample(
                inputs=grid.X[s:s + k],
                targets=occupancy.take(target_cells, axis=1),
                anchor_time=times[anchor],
                target_times=tuple(times[c] for c in target_cells),
                horizons=horizons,
                weeks=frozenset(weeks[s:s + k]) | frozenset(weeks[c] for c in target_cells),
                first_step=int(s),
            ))
    if not samples:
        warnings.warn(
            f"no windows: need at least {k + max_h} contiguous valid grid steps",
            stacklevel=2)
    return samples


def _normalize_week(spec) -> tuple[int | None, int]:
    """Accept an ISO week number, a (year, week) pair, or 'YYYY-Www'; weeks run 1..53."""
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


def _weeks_conflict(a: tuple[int | None, int], b: tuple[int | None, int]) -> bool:
    if a[1] != b[1]:
        return False
    return a[0] is None or b[0] is None or a[0] == b[0]


def _matches(sample_week: tuple[int, int], entries: list[tuple[int | None, int]]) -> bool:
    return any(e[1] == sample_week[1] and (e[0] is None or e[0] == sample_week[0])
               for e in entries)


def split_by_weeks(samples: Iterable[WindowSample],
                   train_weeks: Sequence, test_weeks: Sequence,
                   generality_weeks: Sequence = ()) -> tuple[
                       list[WindowSample], list[WindowSample], list[WindowSample]]:
    """Partition samples into train / test / generality by ISO week.

    A sample lands in a split only when every week it touches belongs to
    that split, so windows never straddle a boundary; straddlers are
    dropped. Week sets must not overlap.
    """
    groups = [[_normalize_week(w) for w in ws]
              for ws in (train_weeks, test_weeks, generality_weeks)]
    for gi in range(3):
        for gj in range(gi + 1, 3):
            for a in groups[gi]:
                for b in groups[gj]:
                    if _weeks_conflict(a, b):
                        raise ConfigError(
                            f"week {b[1]} assigned to more than one split")
    if not groups[0] or not groups[1]:
        raise ConfigError("train_weeks and test_weeks must both be non-empty")

    out: tuple[list[WindowSample], ...] = ([], [], [])
    for sample in samples:
        for bucket, entries in zip(out, groups):
            if entries and all(_matches(w, entries) for w in sample.weeks):
                bucket.append(sample)
                break
    return out


def _input_blocks(samples: Sequence[WindowSample]):
    """(key, array, first row) per sample; samples viewing one grid share its key.

    A view is checked, not assumed from ``first_step``: a scaled copy keeps
    that field but owns its values, and such a sample is a block of its own.
    """
    keys: dict[int, int] = {}
    for i, s in enumerate(samples):
        grid, first = s.inputs.base, s.first_step
        if first is not None and isinstance(grid, np.ndarray) and grid.ndim == 3:
            rows = grid[first:first + len(s.inputs)]
            if (rows.shape, rows.strides, rows.ctypes.data) == \
                    (s.inputs.shape, s.inputs.strides, s.inputs.ctypes.data):
                yield ("grid", keys.setdefault(id(grid), len(keys))), grid, first
                continue
        yield ("own", i), s.inputs, 0


def step_positions(samples: Sequence[WindowSample]) -> np.ndarray:
    """Number each sample's K input steps so that shared steps share a number.

    Two samples share a step exactly when both view the same row of the
    same grid array; every other sample's steps are its own. Numbers rise
    with the grid row, and grids (and samples of their own) take disjoint
    ranges in order of first appearance, so visiting steps by increasing
    number takes every sample's lags in order. Returns a B x K int array.
    """
    offsets: dict[tuple, int] = {}
    end = 0
    out = []
    for s, (key, array, first) in zip(samples, _input_blocks(samples)):
        if key not in offsets:
            offsets[key] = end
            end += len(array)
        out.append(offsets[key] + first + np.arange(len(s.inputs)))
    return np.array(out, dtype=np.int64) if out else np.zeros((0, 0), dtype=np.int64)


def compute_scaling(samples: Sequence[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """Per-column min and max over every input step of the given samples.

    Each grid row the samples cover is read once, however many windows
    hold it. Only the calendar/static columns are ever rescaled; the
    returned arrays still cover all 8 columns, with identity bounds (0, 1)
    on the untouched ones, so they can be stored and applied uniformly.
    """
    if not samples:
        raise DataError("compute_scaling: no samples")
    covered: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for s, (key, array, first) in zip(samples, _input_blocks(samples)):
        mask = covered.setdefault(key, (array, np.zeros(len(array), dtype=np.int8)))[1]
        mask[first:first + len(s.inputs)] = 1
    runs = []
    for array, mask in covered.values():
        edges = np.diff(mask, prepend=0, append=0)
        runs += [array[a:b] for a, b in zip(np.flatnonzero(edges == 1),
                                            np.flatnonzero(edges == -1))]
    n_cols = len(FEATURE_COLUMNS)
    lo = np.zeros(n_cols)
    hi = np.ones(n_cols)
    cols = list(SCALED_COLUMNS)
    lo[cols] = np.min([r.min(axis=(0, 1)) for r in runs], axis=0)[cols]
    hi[cols] = np.max([r.max(axis=(0, 1)) for r in runs], axis=0)[cols]
    return lo, hi


def apply_scaling(sample: WindowSample, lo: np.ndarray, hi: np.ndarray) -> WindowSample:
    """Min-max scale the input features of one sample into a new array.

    Targets stay raw and are shared with ``sample``: both are read-only.
    """
    scaled = np.array(sample.inputs, copy=True)
    for c in SCALED_COLUMNS:
        span = hi[c] - lo[c]
        if span > 0:
            scaled[..., c] = (scaled[..., c] - lo[c]) / span
        else:
            scaled[..., c] = 0.0
    return dataclasses.replace(sample, inputs=scaled)
