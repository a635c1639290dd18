"""Unit tests for ingestion, gridding, windowing, splits, and the generator."""

import csv
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regraph.data import (
    FEATURE_COLUMNS,
    OCCUPANCY_COL,
    RECORD_DTYPE,
    SCALED_COLUMNS,
    FeatureGrid,
    SyntheticConfig,
    WindowSample,
    apply_scaling,
    compute_scaling,
    generate_synthetic,
    interpolate_to_grid,
    load_records,
    make_windows,
    occupancy_rate,
    split_by_weeks,
    step_positions,
)
from regraph.data import ingest
from regraph.errors import ConfigError, DataError
from regraph.graph import SiteMeta, load_sites

T0 = datetime(2024, 1, 1, 0, 0)


def meta(site_id="s", region="WI", capacity=10):
    return SiteMeta(site_id=site_id, region=region, latitude=43.0, longitude=-89.0,
                    travel_time=12.0, owner=1, amenity_count=2, capacity=capacity)


def us(t):
    """UTC microseconds since 1970 of a naive UTC datetime."""
    return (t - datetime(1970, 1, 1)) // timedelta(microseconds=1)


def stream(*points):
    """A record stream of (minutes after T0, available) points, in the given order."""
    return np.array([(us(T0 + timedelta(minutes=m)), a) for m, a in points], RECORD_DTYPE)


def features(grid):
    """The T x n x 8 features of every grid step, read as one block."""
    return grid.block(0, len(grid.valid))


# ----------------------------------------------------------- interpolation

def test_occupancy_arithmetic():
    assert occupancy_rate(50, 10) == pytest.approx(0.8)
    assert occupancy_rate(50, -5) == pytest.approx(1.1)
    with pytest.raises(DataError):
        occupancy_rate(50, 60)
    np.testing.assert_allclose(occupancy_rate(50, np.array([10, -5])), [0.8, 1.1])
    with pytest.raises(DataError, match="capacity=50, available=60"):
        occupancy_rate(50, np.array([10, 60, 70]))


def test_single_missing_point_filled_with_flanking_average():
    site = meta(capacity=10)
    records = {"s": stream((0, 6), (20, 4))}  # 0.4 ... 0.6
    grid = interpolate_to_grid(records, [site])
    assert features(grid).shape == (3, 1, 8)
    assert grid.valid.all()
    assert features(grid)[:, 0, OCCUPANCY_COL] == pytest.approx([0.4, 0.5, 0.6])


def test_complete_grid_is_identity():
    site = meta(capacity=20)
    avail = [20, 15, 10, 5, 0]
    records = {"s": stream(*[(10 * k, a) for k, a in enumerate(avail)])}
    grid = interpolate_to_grid(records, [site])
    assert features(grid)[:, 0, OCCUPANCY_COL] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.valid.all()


def test_last_record_in_a_grid_step_wins():
    site = meta(capacity=10)
    # 00:05 and 00:00 share the first step; the later one in the stream wins
    records = {"s": stream((5, 2), (0, 8), (10, 5), (19, 4))}
    grid = interpolate_to_grid(records, [site])
    assert features(grid)[:, 0, OCCUPANCY_COL] == pytest.approx([0.2, 0.6])


def test_wide_gap_invalidates_frames():
    site = meta(capacity=10)
    records = {"s": stream((0, 5), (80, 5))}  # 7 missing steps > 6
    grid = interpolate_to_grid(records, [site], max_gap=6)
    assert grid.valid[0] and grid.valid[-1]
    assert not grid.valid[1:-1].any()


def test_gap_at_max_gap_still_fills():
    site = meta(capacity=10)
    records = {"s": stream((0, 8), (70, 2))}  # 6 missing steps
    grid = interpolate_to_grid(records, [site], max_gap=6)
    assert grid.valid.all()
    assert features(grid)[3, 0, OCCUPANCY_COL] == pytest.approx(0.5)


def test_unknown_site_rejected():
    with pytest.raises(DataError):
        interpolate_to_grid({"ghost": stream((0, 1), (10, 1))}, [meta()])


def test_too_few_records_rejected():
    with pytest.raises(DataError):
        interpolate_to_grid({"s": stream((0, 1))}, [meta()])


@pytest.mark.parametrize("step_min", [5, 7, 60])
def test_grid_calendar_ids_follow_each_step_across_a_year_end(step_min):
    first = datetime(2024, 12, 29, 13, 37)
    records = {"s": np.array([(us(first + timedelta(minutes=m)), 5)
                              for m in range(0, 4 * 24 * 60, step_min)], RECORD_DTYPE)}
    grid = interpolate_to_grid(records, [meta()], grid_step_min=step_min)
    times = [grid.time(c) for c in range(len(grid.valid))]
    assert times[0].date() == first.date() and times[0].hour == 13
    assert times[-1].year == 2025
    assert grid.calendar.tolist() == [[t.isocalendar()[1], t.weekday(), t.hour] for t in times]


def test_grid_takes_the_same_arrays_with_or_without_the_sort(monkeypatch):
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))

    def grid_and_sorts(streams):
        sorts.clear()
        return interpolate_to_grid(streams, sites, max_gap=2), len(sorts)

    sites = [meta("a"), meta("b", capacity=20)]
    rising = {"a": stream((0, 1), (10, 2), (20, 3), (50, 4), (60, 5)),
              "b": stream((0, 9), (10, 8), (30, 7), (40, 6), (60, 5))}
    # 00:10 and 00:14 share a step, and the later record wins
    twice = {"a": stream((0, 1), (10, 9), (14, 2), (20, 3), (50, 4), (60, 5)), "b": rising["b"]}
    shuffled = {"a": rising["a"][[3, 0, 4, 2, 1]], "b": rising["b"][::-1]}
    sorted_grid, count = grid_and_sorts(rising)
    assert count == 0
    occ, valid = per_step_reference(rising, sites, 2)
    assert sorted_grid.occupancy.tobytes() == occ.tobytes()
    np.testing.assert_array_equal(sorted_grid.valid, valid)
    for streams in (twice, shuffled):
        grid, count = grid_and_sorts(streams)
        assert count == 1 and grid.start == sorted_grid.start
        for name in ("occupancy", "calendar", "attributes", "valid"):
            assert getattr(grid, name).tobytes() == getattr(sorted_grid, name).tobytes()


def test_calendar_and_static_columns():
    site = meta(capacity=10)
    records = {"s": stream((0, 5), (10, 5), (20, 5))}
    grid = interpolate_to_grid(records, [site])
    assert features(grid).shape == (3, 1, 8)
    for t, x in enumerate(features(grid)):
        assert x[0, 0] == 1.0            # ISO week of 2024-01-01
        assert x[0, 1] == 0.0            # Monday
        assert x[0, 2] == float(grid.time(t).hour)
        assert x[0, 3] == 12.0           # travel_time
        assert x[0, 4] == 1.0            # owner
        assert x[0, 5] == 2.0            # amenities
        assert x[0, 6] == 10.0           # capacity
    assert [c for c in FEATURE_COLUMNS[:3]] == ["week_id", "day_id", "hour_id"]


def test_frame_valid_requires_every_site():
    a, b = meta("a"), meta("b")
    records = {
        "a": stream((0, 5), (10, 5), (20, 5)),
        "b": stream((0, 5), (20, 5)),
    }
    grid = interpolate_to_grid(records, [a, b])
    assert grid.valid.all()  # single gap fillable
    records["b"] = stream((0, 5), (120, 5))
    grid = interpolate_to_grid(records, [a, b])
    assert not grid.valid[5]  # inside b's wide gap even though a is known


def test_grid_holds_at_most_64_cells_per_record():
    at_bound = {"s": stream((0, 5), (10 * 127, 5))}  # 128 steps x 1 site, 2 records
    assert features(interpolate_to_grid(at_bound, [meta()])).shape == (128, 1, 8)
    past_bound = {"s": stream((0, 5), (10 * 128, 5))}
    with pytest.raises(DataError, match="129 grid steps x 1 sites .* 2 records"):
        interpolate_to_grid(past_bound, [meta()])


def test_stray_record_years_early_is_a_data_error(tmp_path):
    # two sites with one day of records, plus one record ten years earlier
    sites_path, records_path, _ = generate_synthetic(
        SyntheticConfig(n_sites=2, n_regions=1, days=1, seed=0), tmp_path)
    with open(records_path, "a", encoding="utf-8") as fh:
        fh.write("site_000,2014-01-01T00:00:00,5\n")
    with pytest.raises(DataError, match=r"records span 2014-01-01 00:00:00 to "
                                        r"2024-01-01 23:50:00: .* 289 records"):
        interpolate_to_grid(load_records(records_path), load_sites(sites_path))


# --------------------------------------------------------------- windowing

def make_grid(occs, start=T0, step_min=10, invalid=()):
    """Two sites with occupancy ``occs`` and ``occs + 100`` and all-zero attributes."""
    times = [start + timedelta(minutes=step_min * k) for k in range(len(occs))]
    calendar = np.array([[t.isocalendar()[1], t.weekday(), t.hour] for t in times], dtype=float)
    occupancy = np.column_stack([occs, np.add(occs, 100.0)])
    valid = np.array([k not in invalid for k in range(len(occs))])
    return FeatureGrid(start=start, step_min=step_min, occupancy=occupancy, calendar=calendar,
                       attributes=np.zeros((2, 4)), valid=valid)


def test_window_count_formula():
    grid = make_grid(np.arange(10) / 10.0)
    samples = make_windows(grid, k=6, horizons=[1, 3])
    assert len(samples) == 2  # 10 - 6 - 3 + 1


def test_window_boundary_single_sample():
    grid = make_grid(np.arange(9) / 10.0)
    samples = make_windows(grid, k=6, horizons=[3])
    assert len(samples) == 1


def test_window_targets_and_times():
    grid = make_grid(np.arange(12) / 100.0)
    samples = make_windows(grid, k=6, horizons=[1, 3])
    s = samples[0]
    assert s.anchor_time == grid.time(5)
    np.testing.assert_allclose(s.targets[0], [0.06, 0.08])
    np.testing.assert_allclose(s.targets[1], [100.06, 100.08])
    assert s.target_times[0] - s.anchor_time == timedelta(minutes=10)
    assert s.target_times[1] - s.anchor_time == timedelta(minutes=30)
    assert s.inputs.shape == (6, 2, 8)


def test_horizon_steps_map_to_minutes():
    grid = make_grid(np.zeros(50))
    samples = make_windows(grid, k=6, horizons=[1, 3, 12, 36])
    deltas = [(t - samples[0].anchor_time).total_seconds() / 60.0
              for t in samples[0].target_times]
    assert deltas == [10.0, 30.0, 120.0, 360.0]


def test_windows_never_cross_invalid_frame():
    grid = make_grid(np.zeros(20), invalid=(10,))
    samples = make_windows(grid, k=4, horizons=[2])
    for s in samples:
        span = [s.anchor_time + timedelta(minutes=10 * d) for d in range(-3, 3)]
        assert grid.time(10) not in span
    # runs of 10 and 9 valid steps -> (10-4-2+1) + (9-4-2+1) samples
    assert len(samples) == 5 + 4


def test_windows_respect_invalid_runs():
    grid = make_grid(np.zeros(32), invalid=range(6, 26))  # 6 valid, 20 invalid, 6 valid
    samples = make_windows(grid, k=4, horizons=[1])
    assert len(samples) == 2 * (6 - 4 - 1 + 1)
    assert [s.anchor_time for s in samples] == [grid.time(c) for c in (3, 4, 29, 30)]


def test_insufficient_frames_is_a_data_error():
    grid = make_grid(np.zeros(4))
    with pytest.raises(DataError, match="need at least 9 contiguous valid grid steps"):
        make_windows(grid, k=6, horizons=[3])


def test_window_config_validation():
    grid = make_grid(np.zeros(10))
    with pytest.raises(ConfigError):
        make_windows(grid, k=0, horizons=[1])
    with pytest.raises(ConfigError):
        make_windows(grid, k=3, horizons=[])
    with pytest.raises(ConfigError):
        make_windows(grid, k=3, horizons=[0])
    with pytest.raises(ConfigError, match="10-minute steps"):
        make_windows(grid, k=3, horizons=[1], grid_step_min=60)


# ------------------------------------------------------------------ splits

def hourly_grid(days):
    return make_grid(np.zeros(days * 24), step_min=60)


def test_split_keeps_windows_inside_week_sets():
    grid = hourly_grid(21)  # ISO weeks 1, 2, 3 of 2024
    samples = make_windows(grid, k=6, horizons=[1, 3], grid_step_min=60)
    train, test, gen = split_by_weeks(samples, [1, 2], [3])
    assert gen == []
    assert len(train) + len(test) < len(samples)  # straddlers dropped
    for s in train:
        assert all(w[1] in (1, 2) for w in s.weeks)
    for s in test:
        assert all(w[1] == 3 for w in s.weeks)

    # Independent recount over anchor indices.
    def week_of(idx):
        return (grid.time(idx).isocalendar()[0], grid.time(idx).isocalendar()[1])

    expected_train = expected_test = 0
    for a in range(5, len(grid.valid) - 3):
        touched = {week_of(i) for i in range(a - 5, a + 1)} | {week_of(a + 1), week_of(a + 3)}
        wks = {w for _, w in touched}
        if wks <= {1, 2}:
            expected_train += 1
        elif wks <= {3}:
            expected_test += 1
    assert len(train) == expected_train
    assert len(test) == expected_test


def test_split_overlap_rejected():
    grid = hourly_grid(14)
    samples = make_windows(grid, k=6, horizons=[1], grid_step_min=60)
    with pytest.raises(ConfigError):
        split_by_weeks(samples, [1, 2], [2])
    with pytest.raises(ConfigError):
        split_by_weeks(samples, [1], ["2024-W01"])


def test_split_three_way_disjoint():
    grid = hourly_grid(21)
    samples = make_windows(grid, k=6, horizons=[1], grid_step_min=60)
    train, test, gen = split_by_weeks(samples, [1], [2], [3])
    ids = [id(s) for s in train + test + gen]
    assert len(ids) == len(set(ids))
    assert train and test and gen


def test_split_week_string_and_tuple_forms():
    grid = hourly_grid(14)
    samples = make_windows(grid, k=6, horizons=[1], grid_step_min=60)
    t1, s1, _ = split_by_weeks(samples, ["2024-W01"], [(2024, 2)])
    t2, s2, _ = split_by_weeks(samples, [1], [2])
    assert len(t1) == len(t2) and len(s1) == len(s2)


@pytest.mark.parametrize("spec", [0, 54, "2024-W00", "2024-W99", "2024-w54", (2024, 0),
                                  [2024, 99]])
def test_week_spec_outside_1_to_53_is_rejected(spec):
    # Labels and (year, week) pairs get the week-number range check too.
    grid = hourly_grid(14)
    samples = make_windows(grid, k=6, horizons=[1], grid_step_min=60)
    with pytest.raises(ConfigError, match=r"week number -?\d+ outside 1\.\.53"):
        split_by_weeks(samples, [1], [spec])


@pytest.mark.parametrize("spec", [True, 2.0, "2024-03", "2024-Wx", [2024, "x"],
                                  [2024, None], (2024, 3, 1)])
def test_malformed_week_spec_is_a_config_error(spec):
    grid = hourly_grid(14)
    samples = make_windows(grid, k=6, horizons=[1], grid_step_min=60)
    with pytest.raises(ConfigError, match="bad week spec"):
        split_by_weeks(samples, [1], [spec])


def test_split_requires_train_and_test():
    grid = hourly_grid(14)
    samples = make_windows(grid, k=6, horizons=[1], grid_step_min=60)
    with pytest.raises(ConfigError):
        split_by_weeks(samples, [], [2])


def reference_weeks(sample):
    """The ISO (year, week) of every step a sample touches, one datetime at a time."""
    if sample.grid is None:
        return sample.weeks
    anchor = sample.first_step + sample.k - 1
    cells = [*range(sample.first_step, anchor + 1), *(anchor + h for h in sample.horizons)]
    return {sample.grid.time(c).isocalendar()[:2] for c in cells}


def reference_split(samples, groups):
    """Buckets filled sample by sample: the first split that holds every week touched."""
    def holds(specs, week):
        return any(number == week[1] and year in (None, week[0]) for year, number in specs)
    out = ([], [], [])
    for s in samples:
        weeks = reference_weeks(s)
        bucket = next((b for b, specs in zip(out, groups)
                       if specs and all(holds(specs, w) for w in weeks)), None)
        if bucket is not None:
            bucket.append(s)
    return out


# Each call: the week specs, and the (year or None, week) pairs they name.
YEAR_END_SPLITS = [
    (([52], [1], [2]), [[(None, 52)], [(None, 1)], [(None, 2)]]),
    (([(2025, 1)], ["2024-W52"], ["2025-W02"]), [[(2025, 1)], [(2024, 52)], [(2025, 2)]]),
    ((["2024-W01"], [(2025, 2)], [(2024, 52)]), [[(2024, 1)], [(2025, 2)], [(2024, 52)]]),
]


def test_windows_and_splits_across_an_iso_year_end():
    # 2024-12-27 is a Friday of 2024-W52, and 2024-12-30 opens 2025-W01
    start = datetime(2024, 12, 27)
    grid = make_grid(np.arange(12 * 24 + 1) / 300.0, start=start, step_min=60, invalid=(150,))
    samples = make_windows(grid, k=6, horizons=[1, 3, 12], grid_step_min=60)
    for s in samples:
        anchor = s.first_step + 5
        assert s.anchor_time == grid.time(anchor)
        assert s.target_times == tuple(grid.time(anchor + h) for h in (1, 3, 12))
        assert s.weeks == reference_weeks(s)
    assert set().union(*map(reference_weeks, samples)) == {(2024, 52), (2025, 1), (2025, 2)}

    # a second grid on another step, k and horizons; hand-made samples, one a straddler
    other = make_grid(np.zeros(400), start=datetime(2024, 12, 28, 13, 30), step_min=30)
    second = make_windows(other, k=4, horizons=[2], grid_step_min=30)
    loose = [apply_scaling(s, np.zeros(8), np.ones(8)) for s in samples[::60] + second[::90]]
    loose.append(WindowSample(np.zeros((1, 2, 8)), np.zeros((2, 1)), horizons=(1,),
                              anchor_time=start, target_times=(start,),
                              weeks=frozenset({(2024, 52), (2025, 1)})))
    mixed = samples[40:90] + loose[:3] + second[::7] + loose[3:] + samples[::11] + second[:5]

    ids = [[[id(s) for s in bucket] for bucket in buckets] for buckets in (
        split_by_weeks(samples, *specs) for specs, _ in YEAR_END_SPLITS)]
    for (specs, groups), got in zip(YEAR_END_SPLITS, ids):
        assert got == [[id(s) for s in b] for b in reference_split(samples, groups)]
        split = split_by_weeks(mixed, *specs)
        assert [[id(s) for s in b] for b in split] == [
            [id(s) for s in b] for b in reference_split(mixed, groups)]
    # every split of the first two calls holds windows; 2024-W01 is not 2025-W01
    assert all(ids[0]) and all(ids[1])
    assert ids[2][0] == [] and all(ids[2][1:])


# ----------------------------------------------------------------- scaling

def test_scaling_maps_train_range_to_unit_interval():
    grid = make_grid(np.linspace(0.0, 1.0, 12))
    samples = make_windows(grid, k=4, horizons=[1])
    lo, hi = compute_scaling(samples)
    scaled = apply_scaling(samples[0], lo, hi)
    # occupancy and owner columns untouched
    np.testing.assert_array_equal(scaled.inputs[..., OCCUPANCY_COL],
                                  samples[0].inputs[..., OCCUPANCY_COL])
    np.testing.assert_array_equal(scaled.inputs[..., 4], samples[0].inputs[..., 4])
    # constant columns collapse to zero instead of dividing by zero
    assert np.all(scaled.inputs[..., 0] == 0.0)
    np.testing.assert_array_equal(scaled.targets, samples[0].targets)


def test_scaling_varies_with_hour_column():
    grid = hourly_grid(2)
    samples = make_windows(grid, k=6, horizons=[1], grid_step_min=60)
    lo, hi = compute_scaling(samples)
    assert lo[2] == 0.0 and hi[2] == 23.0
    scaled = apply_scaling(samples[0], lo, hi)
    assert scaled.inputs[..., 2].min() >= 0.0
    assert scaled.inputs[..., 2].max() <= 1.0


def random_grid(steps, seed, invalid=(), n=3):
    """A grid of random features, so every step, site and column differs."""
    rng = np.random.default_rng(seed)
    valid = np.array([k not in invalid for k in range(steps)])
    return FeatureGrid(start=T0, step_min=10, occupancy=rng.uniform(-5.0, 50.0, (steps, n)),
                       calendar=rng.uniform(-5.0, 50.0, (steps, 3)),
                       attributes=rng.uniform(-5.0, 50.0, (n, 4)), valid=valid)


def window_lists():
    """Consecutive, gapped, and two-grid window lists, and one in reverse order."""
    first = make_windows(random_grid(30, 1, invalid=(14,)), k=4, horizons=[1, 2])
    second = make_windows(random_grid(16, 2), k=4, horizons=[1, 2])
    return {
        "consecutive": first[:6],
        "gapped": first[:2] + first[5:7] + first[-2:],
        "two_grids": [w for pair in zip(first[3:8], second[:5]) for w in pair],
        "reversed": first[::-1],
    }


@pytest.mark.parametrize("name", ["consecutive", "gapped", "two_grids", "reversed"])
def test_compute_scaling_equals_per_window_reference(name):
    samples = window_lists()[name]
    lo, hi = compute_scaling(samples)
    cols = list(SCALED_COLUMNS)
    ref_lo, ref_hi = np.zeros(8), np.ones(8)
    ref_lo[cols] = np.min([s.inputs.min(axis=(0, 1)) for s in samples], axis=0)[cols]
    ref_hi[cols] = np.max([s.inputs.max(axis=(0, 1)) for s in samples], axis=0)[cols]
    np.testing.assert_array_equal(lo, ref_lo)
    np.testing.assert_array_equal(hi, ref_hi)
    # a scaled copy or a hand-made window is reduced over its own values
    own = [apply_scaling(s, ref_lo, ref_hi) for s in samples]
    ref = [np.min([s.inputs.min(axis=(0, 1)) for s in own], axis=0)[cols],
           np.max([s.inputs.max(axis=(0, 1)) for s in own], axis=0)[cols]]
    lo, hi = compute_scaling(own)
    np.testing.assert_array_equal(lo[cols], ref[0])
    np.testing.assert_array_equal(hi[cols], ref[1])


def test_step_positions_share_exactly_the_same_grid_rows():
    lists = window_lists()
    first = make_windows(random_grid(30, 1, invalid=(14,)), k=4, horizons=[1, 2])
    assert [w.first_step for w in first[:3]] == [0, 1, 2]
    pos = step_positions(first[:3])
    np.testing.assert_array_equal(pos, [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]])

    pos = step_positions(lists["two_grids"])
    # the two grids take disjoint numbers; windows of one grid overlap in K-1
    assert not set(pos[0::2].ravel()) & set(pos[1::2].ravel())
    np.testing.assert_array_equal(np.diff(pos[0::2, 0]), 1)
    np.testing.assert_array_equal(np.diff(pos, axis=1), 1)

    # scaled copies and hand-made windows share nothing, even with a first_step
    scaled = [apply_scaling(w, np.zeros(8), np.ones(8)) for w in first[:2]]
    assert scaled[0].first_step == 0
    loose = WindowSample(inputs=np.array(first[0].inputs), targets=first[0].targets,
                         anchor_time=T0, target_times=(T0,), horizons=(1,),
                         weeks=frozenset(), first_step=0)
    pos = step_positions(scaled + [loose, first[0]])
    assert len(set(pos.ravel())) == 4 * 4
    assert step_positions([]).shape == (0, 0)


def dense_grid(grid):
    """The T x n x 8 features of a grid, each column broadcast from where it is stored."""
    steps, n = grid.occupancy.shape
    return np.concatenate([np.broadcast_to(grid.calendar[:, None, :], (steps, n, 3)),
                           np.broadcast_to(grid.attributes, (steps, n, 4)),
                           grid.occupancy[:, :, None]], axis=2)


def scaled_whole(x, lo, hi):
    """A K x n x 8 window scaled column by column over all its cells."""
    x = x.copy()
    for c in SCALED_COLUMNS:
        x[..., c] = (x[..., c] - lo[c]) / (hi[c] - lo[c]) if hi[c] > lo[c] else 0.0
    return x


def test_windows_of_two_grids_equal_the_dense_construction():
    grids = [random_grid(30, 1, invalid=(14,)), random_grid(16, 2, n=3)]
    samples = [w for g in grids for w in make_windows(g, k=4, horizons=[1, 3])]
    lo, hi = compute_scaling(samples)
    lo[2] = hi[2]  # an empty range scales to zero
    for w in samples:
        dense = dense_grid(w.grid)
        anchor = w.first_step + w.k - 1
        inputs = np.ascontiguousarray(dense[w.first_step:anchor + 1])
        targets = np.ascontiguousarray(dense[[anchor + 1, anchor + 3], :, OCCUPANCY_COL].T)
        assert w.inputs.tobytes() == inputs.tobytes()
        assert w.targets.tobytes() == targets.tobytes()
        scaled = apply_scaling(w, lo, hi)
        assert scaled.grid is None and scaled.inputs.flags.c_contiguous
        assert scaled.inputs.tobytes() == scaled_whole(inputs, lo, hi).tobytes()
        assert scaled.targets.tobytes() == targets.tobytes()
        again = apply_scaling(scaled, np.zeros(8), np.ones(8))
        assert again.inputs.tobytes() == scaled.inputs.tobytes()


def test_scaling_and_positions_over_grid_scaled_and_hand_made_samples():
    first = make_windows(random_grid(30, 1), k=4, horizons=[1, 2])
    second = make_windows(random_grid(16, 2), k=4, horizons=[1, 2])
    scaled = apply_scaling(first[1], *compute_scaling(first[9:12]))
    loose = WindowSample(inputs=np.random.default_rng(3).uniform(-9.0, 60.0, (4, 3, 8)),
                         targets=np.zeros((3, 2)), anchor_time=T0, target_times=(T0, T0),
                         horizons=(1, 2), weeks=frozenset(), first_step=2)
    mixed = first[:3] + [scaled] + second[:2] + [loose] + first[5:6]
    np.testing.assert_array_equal(step_positions(mixed), [
        [0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5],  # the first grid, 30 steps
        [30, 31, 32, 33],                          # a scaled copy is its own
        [34, 35, 36, 37], [35, 36, 37, 38],        # the second grid, 16 steps
        [50, 51, 52, 53],                          # and so is a hand-made sample
        [5, 6, 7, 8]])
    lo, hi = compute_scaling(mixed)
    cols = list(SCALED_COLUMNS)
    ref_lo, ref_hi = np.zeros(8), np.ones(8)
    ref_lo[cols] = np.min([s.inputs.min(axis=(0, 1)) for s in mixed], axis=0)[cols]
    ref_hi[cols] = np.max([s.inputs.max(axis=(0, 1)) for s in mixed], axis=0)[cols]
    assert (lo.tobytes(), hi.tobytes()) == (ref_lo.tobytes(), ref_hi.tobytes())


# --------------------------------------------------------------- synthetic

def small_cfg(**kw):
    base = dict(n_sites=12, n_regions=4, days=3, seed=7)
    base.update(kw)
    return SyntheticConfig(**base)


def test_synthetic_deterministic_bytes(tmp_path):
    p1 = generate_synthetic(small_cfg(), tmp_path / "a")
    p2 = generate_synthetic(small_cfg(), tmp_path / "b")
    for f1, f2 in zip(p1, p2):
        assert f1.read_bytes() == f2.read_bytes()


def test_synthetic_seed_changes_output(tmp_path):
    p1 = generate_synthetic(small_cfg(seed=1), tmp_path / "a")
    p2 = generate_synthetic(small_cfg(seed=2), tmp_path / "b")
    assert p1[1].read_bytes() != p2[1].read_bytes()


def test_synthetic_sites_loadable_and_regional(tmp_path):
    sites_path, records_path, sidecar = generate_synthetic(small_cfg(), tmp_path)
    sites = load_sites(sites_path)
    assert len(sites) == 12
    assert len({s.region for s in sites}) == 4
    assert all(20 <= s.capacity <= 120 for s in sites)
    assert sidecar.exists()


def test_synthetic_occupancy_bounds(tmp_path):
    cfg = small_cfg(days=7)
    sites_path, records_path, _ = generate_synthetic(cfg, tmp_path)
    sites = {s.site_id: s for s in load_sites(sites_path)}
    streams = load_records(records_path)
    occ = np.array([occupancy_rate(sites[sid].capacity, stream["available"])
                    for sid, stream in sorted(streams.items())])
    rounding = 0.5 / min(s.capacity for s in sites.values())
    assert occ.min() >= 0.0
    assert occ.max() <= 1.1 + rounding
    assert np.any(occ > 1.0)  # over-capacity is exercised


def test_synthetic_coupling_zero_is_independent(tmp_path):
    base = generate_synthetic(small_cfg(coupling=0.0), tmp_path / "a")
    forced = generate_synthetic(small_cfg(coupling=0.0, forced_full=(0,)), tmp_path / "b")
    s_base = load_records(base[1])
    s_forced = load_records(forced[1])
    assert np.array_equal(s_base["site_001"], s_forced["site_001"])
    assert not np.array_equal(s_base["site_000"], s_forced["site_000"])


def test_synthetic_coupling_spills_to_same_region(tmp_path):
    quiet = generate_synthetic(small_cfg(coupling=0.0, forced_full=(0,)), tmp_path / "a")
    loud = generate_synthetic(small_cfg(coupling=0.8, forced_full=(0,)), tmp_path / "b")
    sites = {s.site_id: s for s in load_sites(quiet[0])}

    def region_mean(paths, members):
        streams = load_records(paths[1])
        vals = [occupancy_rate(sites[m].capacity, streams[m]["available"]) for m in members]
        return float(np.mean(np.concatenate(vals)))

    # Region of site_000 holds sites 0, 4, 8; neighbors are 4 and 8.
    neighbors = ["site_004", "site_008"]
    assert region_mean(loud, neighbors) > region_mean(quiet, neighbors)


def test_synthetic_same_region_correlation_dominates(tmp_path):
    cfg = SyntheticConfig(n_sites=32, n_regions=8, days=14, seed=3)
    sites_path, records_path, _ = generate_synthetic(cfg, tmp_path)
    sites = load_sites(sites_path)
    streams = load_records(records_path)
    occ = np.array([occupancy_rate(s.capacity, streams[s.site_id]["available"])
                    for s in sites])
    corr = np.corrcoef(occ)
    same, cross = [], []
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            (same if sites[i].region == sites[j].region else cross).append(corr[i, j])
    assert np.mean(same) >= np.mean(cross) + 0.1


def test_synthetic_drop_rate_creates_gaps(tmp_path):
    cfg = small_cfg(drop_rate=0.05)
    _, records_path, _ = generate_synthetic(cfg, tmp_path)
    streams = load_records(records_path)
    total = sum(len(v) for v in streams.values())
    full = 12 * 3 * 144
    assert total < full
    for stream in streams.values():
        assert stream["time_us"][0] == us(datetime(2024, 1, 1))


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(coupling=1.5)
    with pytest.raises(ConfigError):
        SyntheticConfig(n_sites=4, n_regions=8)
    SyntheticConfig(n_sites=500, n_regions=116)
    with pytest.raises(ConfigError, match="at most 116 regions"):
        SyntheticConfig(n_sites=500, n_regions=117)
    with pytest.raises(ConfigError):
        SyntheticConfig(forced_full=(200,))
    with pytest.raises(ConfigError):
        SyntheticConfig(start_date="not-a-date")


@pytest.mark.parametrize("field", ["noise_level", "forced_level", "coupling", "drop_rate"])
def test_synthetic_config_rejects_nan(field):
    with pytest.raises(ConfigError, match=field):
        SyntheticConfig(**{field: float("nan")})


def test_synthetic_end_to_end_windows(tmp_path):
    cfg = SyntheticConfig(n_sites=8, n_regions=2, days=7, seed=5)
    sites_path, records_path, _ = generate_synthetic(cfg, tmp_path)
    sites = load_sites(sites_path)
    streams = load_records(records_path)
    grid = interpolate_to_grid(streams, sites)
    assert grid.valid.all()
    samples = make_windows(grid, k=6, horizons=[1, 3])
    assert len(samples) == 7 * 144 - 6 - 3 + 1


def per_step_reference(streams, sites, max_gap):
    """Occupancy (T x n) and validity of every grid step, one site and one step at a time."""
    step_us = us(datetime(1970, 1, 1, 0, 10))
    per_site = []
    for s in sites:
        cells = {}
        for time_us, available in streams[s.site_id].tolist():
            cells[time_us // step_us] = (s.capacity - available) / s.capacity
        per_site.append(cells)
    first = min(min(c) for c in per_site)
    occ = np.zeros((max(max(c) for c in per_site) - first + 1, len(sites)))
    ok = np.zeros(occ.shape, dtype=bool)
    for i, cells in enumerate(per_site):
        known = sorted(cells)
        for c in known:
            occ[c - first, i] = cells[c]
            ok[c - first, i] = True
        for left, right in zip(known, known[1:]):
            if 0 < right - left - 1 <= max_gap:
                occ[left + 1 - first:right - first, i] = (cells[left] + cells[right]) / 2.0
                ok[left + 1 - first:right - first, i] = True
    return occ, ok.all(axis=1)


def dense_features(start, occ, sites):
    """T x n x 8 features written cell by cell, with each step's calendar ids."""
    x = np.empty(occ.shape + (len(FEATURE_COLUMNS),))
    for c in range(len(occ)):
        t = start + timedelta(minutes=10 * c)
        for i, s in enumerate(sites):
            x[c, i] = [t.isocalendar()[1], t.weekday(), t.hour, s.travel_time, s.owner,
                       s.amenity_count, s.capacity, occ[c, i]]
    return x


def first_grid_error(streams, sites):
    """The error a site-by-site pass meets first: too few records, or a rate below zero."""
    for s in sites:
        points = streams.get(s.site_id, np.zeros(0, RECORD_DTYPE))
        if len(points) < 2:
            return f"site {s.site_id}: need at least 2 records, got {len(points)}"
        for available in points["available"].tolist():
            if available > s.capacity:
                return f"occupancy below zero: capacity={s.capacity}, available={available}"
    return None


SITE_STREAMS = st.lists(
    st.lists(st.tuples(st.integers(0, 300), st.integers(-3, 11)), max_size=12),
    min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(points=SITE_STREAMS, max_gap=st.integers(0, 6), shuffle=st.randoms())
def test_grid_of_unsorted_streams_matches_the_per_step_reference(points, max_gap, shuffle):
    # site i has capacity 10, so an available of 11 is occupancy below zero;
    # some streams come unsorted, with several records in one step
    sites = [meta(f"s{i}") for i in range(len(points))]
    streams = {}
    for s, site_points in zip(sites, points):
        if shuffle.random() < 0.5:
            site_points = sorted(site_points)
        streams[s.site_id] = stream(*site_points)
    error = first_grid_error(streams, sites)
    if error is not None:
        with pytest.raises(DataError) as exc:
            interpolate_to_grid(streams, sites, max_gap=max_gap)
        assert str(exc.value) == error
        return
    grid = interpolate_to_grid(streams, sites, max_gap=max_gap)
    occ, valid = per_step_reference(streams, sites, max_gap)
    assert grid.occupancy.tobytes() == occ.tobytes()
    np.testing.assert_array_equal(grid.valid, valid)


@pytest.mark.parametrize("max_gap", [1, 6])
def test_drop_rate_windows_match_per_step_reference(tmp_path, max_gap):
    sites_path, records_path, _ = generate_synthetic(small_cfg(drop_rate=0.05), tmp_path)
    sites = load_sites(sites_path)
    streams = load_records(records_path)
    grid = interpolate_to_grid(streams, sites, max_gap=max_gap)
    occ, valid = per_step_reference(streams, sites, max_gap)
    dense = dense_features(grid.start, occ, sites)
    np.testing.assert_array_equal(grid.occupancy, occ)
    np.testing.assert_array_equal(grid.valid, valid)
    assert valid.all() == (max_gap == 6)  # gap 1 leaves invalid steps to skip
    assert features(grid).tobytes() == dense.tobytes()

    k, horizons = 6, (1, 3)
    expected, run = [], []
    for c in range(len(valid) + 1):
        if c < len(valid) and valid[c]:
            run.append(c)
            continue
        for s in range(len(run) - k - horizons[-1] + 1):
            cells = run[s:s + k]
            targets = [cells[-1] + h for h in horizons]
            expected.append((np.stack([dense[i] for i in cells]),
                             np.column_stack([occ[i] for i in targets]),
                             grid.time(cells[-1]), tuple(grid.time(i) for i in targets),
                             {grid.time(i).isocalendar()[:2] for i in cells + targets}))
        run = []
    samples = make_windows(grid, k, horizons)
    assert len(samples) == len(expected) > 0
    for sample, (inputs, targets, anchor, target_times, weeks) in zip(samples, expected):
        assert sample.inputs.tobytes() == inputs.tobytes()
        assert sample.targets.tobytes() == targets.tobytes()
        assert sample.targets.flags.c_contiguous
        assert (sample.anchor_time, sample.target_times) == (anchor, target_times)
        assert sample.weeks == weeks


def test_a_grid_and_its_windows_hold_little_more_than_the_occupancy(tmp_path):
    sites_path, records_path, _ = generate_synthetic(small_cfg(n_sites=60, days=2), tmp_path)
    sites, streams = load_sites(sites_path), load_records(records_path)
    tracemalloc.start()
    try:
        grid = interpolate_to_grid(streams, sites)
        samples = make_windows(grid, 6, (1, 3, 12, 36))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    steps, n = len(grid.valid), len(sites)
    # the float occupancy of every (step, site) cell; per step its three calendar
    # ids and its flag; per site its attributes; per window the slotted object
    # (104 B) and its list entry; and a fixed allowance
    bound = (8 * steps * n + 32 * steps + 32 * n + 112 * len(samples) + 8 * 1024)
    assert (steps, n, len(samples)) == (288, 60, 247)
    assert held < bound, f"{held} bytes held, bound {bound}"


# ------------------------------------------------------------------ ingest

def test_load_records_sorts_and_dedups(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "site_id,timestamp_iso8601,available\n"
        "s,2024-01-01T00:10:00,5\n"
        "s,2024-01-01T00:00:00,9\n"
        "s,2024-01-01T00:10:00,6\n",
        encoding="utf-8",
    )
    streams = load_records(path)
    assert streams["s"].dtype == RECORD_DTYPE
    assert streams["s"].tolist() == [(us(T0), 9), (us(T0 + timedelta(minutes=10)), 6)]


def test_load_records_bad_header(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_records(path)


def test_load_records_timezone_normalized(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "site_id,timestamp_iso8601,available\n"
        "s,2024-01-01T02:00:00+02:00,5\n"
        "s,2024-01-01T00:10:00,6\n",
        encoding="utf-8",
    )
    streams = load_records(path)
    assert streams["s"]["time_us"][0] == us(datetime(2024, 1, 1, 0, 0))


def test_load_records_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(b"site_id,timestamp_iso8601,available\ns\xff,2024-01-01T00:00:00,5\n")
    with pytest.raises(DataError):
        load_records(path)


def test_load_records_rejects_available_beyond_64_bits(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("site_id,timestamp_iso8601,available\n"
                    "s,2024-01-01T00:00:00,5\n"
                    "s,2024-01-01T00:10:00,99999999999999999999\n", encoding="utf-8")
    with pytest.raises(DataError, match="records file"):
        load_records(path)


class CountingDatetime(datetime):
    """``datetime`` whose ``fromisoformat`` counts its calls."""

    parses = 0

    @classmethod
    def fromisoformat(cls, text):
        CountingDatetime.parses += 1
        return datetime.fromisoformat(text)


@pytest.fixture
def count_parses(monkeypatch):
    from regraph.data import ingest
    monkeypatch.setattr(ingest, "datetime", CountingDatetime)
    monkeypatch.setattr(CountingDatetime, "parses", 0)
    return CountingDatetime


def write_records(path, lines):
    path.write_text("site_id,timestamp_iso8601,available\n" + "".join(
        line + "\n" for line in lines), encoding="utf-8")
    return path


def test_load_records_parses_each_run_of_equal_timestamps_once(tmp_path, count_parses):
    cfg = SyntheticConfig(n_sites=105, n_regions=8, days=1, seed=5)
    _, records_path, _ = generate_synthetic(cfg, tmp_path)
    streams = load_records(records_path)
    assert count_parses.parses == 144  # one per grid step, not one per row
    _, *rows = records_path.read_text(encoding="utf-8").splitlines()
    site_major = write_records(tmp_path / "site_major.csv",
                               sorted(rows, key=lambda row: row.split(",")[0]))
    again = load_records(site_major)
    assert again.keys() == streams.keys()
    for site_id, stream in streams.items():
        assert again[site_id].tobytes() == stream.tobytes()


def test_load_records_equal_instants_in_other_forms_agree(tmp_path, count_parses):
    streams = load_records(write_records(tmp_path / "records.csv", [
        "a,2024-01-01T00:00:00,5", "b,2024-01-01T00:00:00+00:00,6",
        "c,2024-01-01T02:00:00+02:00,7", "d,2024-01-01T00:00:00,8"]))
    assert {site: s["time_us"].tolist() for site, s in streams.items()} == {
        site: [us(T0)] for site in "abcd"}
    assert count_parses.parses == 4  # each text differs from the row before


def test_load_records_blank_lines_keep_the_parsed_timestamp(tmp_path, count_parses):
    streams = load_records(write_records(tmp_path / "records.csv", [
        "a,2024-01-01T00:00:00,5", "", "b,2024-01-01T00:00:00,6", "", "",
        "c,2024-01-01T00:00:00,7"]))
    assert {site: s.tolist() for site, s in streams.items()} == {
        "a": [(us(T0), 5)], "b": [(us(T0), 6)], "c": [(us(T0), 7)]}
    assert count_parses.parses == 1


def test_load_records_bad_value_after_a_reused_timestamp_names_its_line(tmp_path):
    path = write_records(tmp_path / "records.csv", [
        "a,2024-01-01T00:00:00,5", "b,2024-01-01T00:00:00,x"])
    with pytest.raises(DataError, match=r"line 3: invalid literal for int\(\)"):
        load_records(path)


def test_load_records_repeated_bad_timestamp_names_its_first_line(tmp_path, count_parses):
    path = write_records(tmp_path / "records.csv", [
        "a,2024-01-01T00:00:00,5", "a,2024-13-01T00:00:00,5", "b,2024-13-01T00:00:00,5"])
    with pytest.raises(DataError, match="line 3: month must be in 1..12"):
        load_records(path)
    assert count_parses.parses == 2


# A row is ("ok", site, naive UTC time, UTC offset in minutes or None, available),
# ("blank",), ("fields", cells): a valid row cut short or with extra fields, or
# ("bad", site, timestamp text, available text) with an unparseable or
# out-of-range value.
OK_ROWS = st.tuples(st.just("ok"), st.sampled_from(["a", "b", "c,d"]),
                    st.integers(0, 5).map(lambda m: T0 + timedelta(minutes=10 * m)),
                    st.sampled_from([None, -90, 0, 330]), st.integers(-20, 200))
ODD_ROWS = st.one_of(
    st.just(("blank",)),
    st.tuples(st.just("fields"), st.sampled_from([1, 2, 4, 5]).map(
        lambda n: ["a", "2024-01-01T00:00:00", "5", "extra", ""][:n])),
    st.tuples(st.just("bad"), st.sampled_from(["a", ""]),
              st.sampled_from(["2024-01-01T00:00:00", "2024-13-01T00:00:00", "soon"]),
              st.sampled_from(["7", "x", "1.5", "--3", "", "9" * 19])))


def expected_streams(rows):
    """Last-wins, timestamp-sorted streams, or None when some row is malformed."""
    latest = {}
    for row in rows:
        if row[0] == "blank":
            continue
        if row[0] == "ok":
            _, site, utc, offset, available = row
            latest.setdefault(site, {})[utc] = available
            continue
        if row[0] == "fields" or row[1] == "" or row[2] != "2024-01-01T00:00:00" or row[3] != "7":
            return None
        latest.setdefault(row[1], {})[datetime(2024, 1, 1)] = 7
    return {site: [(us(t), by_time[t]) for t in sorted(by_time)]
            for site, by_time in latest.items()}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.one_of(OK_ROWS, OK_ROWS, ODD_ROWS), max_size=12))
def test_load_records_matches_sorted_last_wins_reference(tmp_path, rows):
    path = tmp_path / "records.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "timestamp_iso8601", "available"])
        for row in rows:
            if row[0] == "ok":
                _, site, utc, offset, available = row
                local = utc if offset is None else \
                    (utc + timedelta(minutes=offset)).replace(
                        tzinfo=timezone(timedelta(minutes=offset)))
                writer.writerow([site, local.isoformat(), available])
            elif row[0] == "fields":
                writer.writerow(row[1])
            else:
                writer.writerow(row[1:])
    expected = expected_streams(rows)
    if expected is None:
        with pytest.raises(DataError):
            load_records(path)
        return
    streams = load_records(path)
    assert {site: stream.tolist() for site, stream in streams.items()} == expected


# ------------------------------------------------- columns path and row loop

HEADER = "site_id,timestamp_iso8601,available"
# one byte, several ASCII bytes, 9 bytes (two words), multi-byte UTF-8, the widest taken
PLAIN_SITES = ["a", "b", "site_000", "site_1000", "ü", "站点", "x" * ingest.FIELD_BYTES]
PLAIN_ROWS = st.one_of(
    st.tuples(st.just("ok"), st.sampled_from(PLAIN_SITES),
              st.integers(0, 5).map(lambda m: T0 + timedelta(minutes=10 * m)),
              st.sampled_from([None, -90, 0, 330]),
              st.one_of(st.integers(-20, 200),
                        st.integers(-(10 ** ingest.DIGITS - 1), 10 ** ingest.DIGITS - 1))),
    st.just(("blank",)))


def read_with(read, path):
    """What ``read`` makes of ``path`` (each stream's site, dtype and bytes in
    order, or the DataError's text), and the timestamps it parsed."""
    CountingDatetime.parses = 0
    try:
        streams = read(path)
    except DataError as exc:
        return str(exc), CountingDatetime.parses
    if streams is None:
        return None, CountingDatetime.parses
    return [(site, s.dtype, s.tobytes()) for site, s in streams.items()], CountingDatetime.parses


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(PLAIN_ROWS, max_size=30),
       order=st.sampled_from(["as drawn", "time-major", "site-major"]),
       endings=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=1, max_size=3),
       last_newline=st.booleans(),
       bad=st.sampled_from([None, None, None, "2024-13-01T00:00:00", "soon",
                            "2024-01-01T00:00:00+25:00"]),
       bad_at=st.integers(0, 30), block=st.sampled_from([1, 7, 64, 1 << 20]))
def test_plain_files_read_the_same_through_columns_and_rows(
        tmp_path, monkeypatch, rows, order, endings, last_newline, bad, bad_at, block):
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
    monkeypatch.setattr(ingest, "datetime", CountingDatetime)
    if order != "as drawn":  # blank lines first
        rows = sorted(rows, key=lambda row: ("", T0) if row[0] == "blank" else
                      (row[2].isoformat(), row[1]) if order == "time-major" else row[1:3])
    lines = []
    for row in rows:
        if row[0] == "blank":
            lines.append("")
            continue
        _, site, utc, offset, available = row
        local = utc if offset is None else (utc + timedelta(minutes=offset)).replace(
            tzinfo=timezone(timedelta(minutes=offset)))
        lines.append(f"{site},{local.isoformat()},{available}")
    if bad is not None:
        lines.insert(min(bad_at, len(lines)), f"b,{bad},5")
    ends = [endings[i % len(endings)] for i in range(len(lines) + 1)]
    if lines and not last_newline:
        ends[-1] = ""
    text = "".join(line + end for line, end in zip([HEADER] + lines, ends))
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode("utf-8"))
    columns = read_with(ingest._read_columns, path)
    assert columns[0] is not None  # a plain file takes the columns path
    assert columns == read_with(ingest._read_rows, path)
    assert read_with(load_records, path) == columns


def test_a_synth_records_file_never_reaches_the_row_loop(tmp_path, monkeypatch):
    cfg = SyntheticConfig(n_sites=12, n_regions=3, days=2, seed=3, drop_rate=0.05)
    _, records_path, _ = generate_synthetic(cfg, tmp_path)
    expected = ingest._read_rows(records_path)

    def row_loop(path):
        raise AssertionError(f"{path} went through the row loop")

    monkeypatch.setattr(ingest, "_read_rows", row_loop)
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 4096)  # many blocks, runs cut across them
    streams = load_records(records_path)
    assert list(streams) == list(expected)
    assert all(streams[site].tobytes() == expected[site].tobytes() for site in expected)


TOP, ROW = HEADER.encode() + b"\n", b"a,2024-01-01T00:00:00,"
NOT_PLAIN = {
    "quoted site id": (TOP + b'"a",2024-01-01T00:00:00,5\n', {"a": [(us(T0), 5)]}),
    "plus sign": (TOP + ROW + b"+5\n", {"a": [(us(T0), 5)]}),
    "leading space": (TOP + ROW + b" 5\n", {"a": [(us(T0), 5)]}),
    "19 digits": (TOP + ROW + b"1000000000000000000\n", {"a": [(us(T0), 10 ** 18)]}),
    "lone carriage return": (TOP + ROW + b"5\rb,2024-01-01T00:10:00,6\n",
                             {"a": [(us(T0), 5)], "b": [(us(T0) + 600_000_000, 6)]}),
    "NUL byte": (TOP + b"a\0,2024-01-01T00:00:00,5\n", {"a\0": [(us(T0), 5)]}),
    "byte order mark": (b"\xef\xbb\xbf" + TOP + ROW + b"5\n", "expected header"),
    "non-UTF-8 byte": (TOP + b"a\xff,2024-01-01T00:00:00,5\n", "can't decode byte 0xff"),
}


@pytest.mark.parametrize("raw, expected", NOT_PLAIN.values(), ids=NOT_PLAIN)
def test_files_that_are_not_plain_take_the_row_loop(tmp_path, monkeypatch, raw, expected):
    path = tmp_path / "records.csv"
    path.write_bytes(raw)
    assert ingest._read_columns(path) is None
    calls, original = [], ingest._read_rows
    monkeypatch.setattr(ingest, "_read_rows", lambda p: calls.append(p) or original(p))
    if isinstance(expected, str):
        with pytest.raises(DataError, match=expected):
            load_records(path)
    else:
        assert {site: s.tolist() for site, s in load_records(path).items()} == expected
    assert calls == [path]


def test_load_records_holds_a_block_and_the_columns_not_the_file(tmp_path, monkeypatch):
    block = 1 << 16
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
    times = [(T0 + timedelta(minutes=10 * k)).isoformat() for k in range(400)]
    path = write_records(tmp_path / "records.csv", [
        f"site_{i:03d},{stamp},{(i * k) % 97}" for k, stamp in enumerate(times)
        for i in range(80)])
    rows = 80 * len(times)
    assert path.stat().st_size > 15 * block
    tracemalloc.start()
    try:
        streams = load_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, streams.values())) == rows
    # a block's bytes and its per-row work, the site code, time and value of every
    # row read so far, and the sorted streams; the file itself is 34 B a row
    bound = 6 * block + 40 * rows
    assert peak < bound, f"{peak} bytes at the peak, bound {bound}"


def test_window_sample_arrays_read_only():
    grid = make_grid(np.zeros(10))
    sample = make_windows(grid, k=6, horizons=[1])[0]
    # a window holds its grid and first step, and builds its arrays when read
    assert sample.grid is grid and (sample.first_step, sample.k) == (0, 6)
    assert sample.inputs is not sample.inputs
    assert not np.shares_memory(sample.targets, grid.occupancy)
    with pytest.raises(ValueError):
        sample.inputs[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        sample.targets[0, 0] = 5.0
    for array in (grid.occupancy, grid.calendar, grid.attributes, grid.valid):
        with pytest.raises(ValueError):
            array[0] = 5.0
    loose = WindowSample(inputs=np.zeros((2, 2, 8)), targets=np.zeros((2, 1)), anchor_time=T0,
                         target_times=(T0,), horizons=(1,), weeks=frozenset())
    assert (loose.grid, loose.k) == (None, 2) and loose.inputs is loose.inputs
    with pytest.raises(ValueError):
        loose.inputs[0, 0, 0] = 5.0
    with pytest.raises(TypeError, match="takes inputs and targets"):
        WindowSample(inputs=np.zeros((2, 2, 8)), anchor_time=T0, target_times=(T0,),
                     horizons=(1,), weeks=frozenset())
    with pytest.raises(TypeError, match="no arrays"):
        WindowSample(inputs=np.zeros((2, 2, 8)), targets=np.zeros((2, 1)), anchor_time=T0,
                     target_times=(T0,), horizons=(1,), weeks=frozenset(), grid=grid,
                     first_step=0, k=2)


def test_feature_grid_checks_its_shapes_and_block_range():
    grid = random_grid(5, seed=1, n=2)
    with pytest.raises(DataError, match=r"got shapes \(5, 2\), \(5, 3\), \(3, 4\), \(5,\)"):
        FeatureGrid(start=T0, step_min=10, occupancy=grid.occupancy, calendar=grid.calendar,
                    attributes=np.zeros((3, 4)), valid=grid.valid)
    with pytest.raises(DataError, match="steps 3 to 5 outside 0 to 4"):
        grid.block(3, 3)
    assert grid.block(2, 3).shape == (3, 2, 8)
