"""Tests for metrics, reports, and generality inference."""

import json
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest

from regraph.data import (
    FeatureGrid,
    WindowSample,
    apply_scaling,
    compute_scaling,
    make_windows,
)
from regraph.errors import ConfigError, ShapeError
from regraph.evaluation import (
    METRICS_COLUMNS,
    aggregate_comparison,
    compute_metrics,
    evaluate_model,
    generality_inference,
    metric_rows,
    predict_samples,
    q95_reference,
    q95_table,
    write_comparison_json,
    write_metrics_csv,
    write_timeseries,
)
from regraph.graph import (
    HaversineProvider,
    SiteMeta,
    build_connected,
    decompose_random,
    decompose_regional,
)
from regraph.models import (
    ModelSpec,
    build_model,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from regraph.numerics import clear_tape
from regraph.training import TrainConfig, train, val_rmse

RNG = np.random.default_rng


def site(site_id, region="WI"):
    return SiteMeta(site_id=site_id, region=region, latitude=43.0, longitude=-89.0,
                    travel_time=10.0, owner=1, amenity_count=3, capacity=50)


class FakeProvider:
    def __init__(self, table):
        self.table = {frozenset(k): v for k, v in table.items()}

    def miles(self, a, b):
        return self.table.get(frozenset((a.site_id, b.site_id)), 999.0)


def toy_graph():
    sites = [site("w1"), site("w2"), site("i1", "IA"), site("i2", "IA")]
    return build_connected(sites, FakeProvider({("w1", "w2"): 10.0,
                                                ("i1", "i2"): 15.0}))


def toy_model(hidden=8, k=3, horizons=(1, 2), seed=0):
    g = toy_graph()
    return build_model(ModelSpec("RegTGCN", hidden, k, horizons, "regional",
                                 seed=seed), g, decompose_regional(g))


def sample(k=3, n=4, horizons=(1, 2), week=(2024, 1), seed=0):
    rng = RNG(seed)
    anchor = datetime(2024, 1, 1) + timedelta(days=7 * (week[1] - 1),
                                              minutes=10 * seed)
    return WindowSample(
        inputs=rng.uniform(0.0, 1.0, size=(k, n, 8)),
        targets=rng.uniform(0.1, 0.9, size=(n, len(horizons))),
        anchor_time=anchor,
        target_times=tuple(anchor + timedelta(minutes=10 * h) for h in horizons),
        horizons=tuple(horizons), weeks=frozenset([week]))


# ------------------------------------------------------------------- q95

def test_q95_constant_series():
    assert q95_reference(np.full(30, 0.7)) == pytest.approx(0.7, abs=1e-15)


def test_q95_linear_interpolation_convention():
    series = np.arange(1, 101) * 0.01
    assert q95_reference(series) == pytest.approx(0.9505, abs=1e-12)


def test_q95_with_over_capacity_tail():
    series = np.concatenate([np.full(95, 0.8), np.full(5, 1.1)])
    q = q95_reference(series)
    assert q <= 1.1
    assert q > np.percentile(series, 90)


def test_q95_too_few_observations_warns():
    with pytest.warns(UserWarning, match="19 observations"):
        assert np.isnan(q95_reference(np.full(19, 0.5)))


def test_q95_table_per_row():
    stack = np.vstack([np.full(25, 0.4), np.arange(1, 26) * 0.01])
    out = q95_table(stack)
    assert out[0] == pytest.approx(0.4)
    assert out[1] == pytest.approx(np.percentile(stack[1], 95))
    with pytest.raises(ShapeError):
        q95_table(np.zeros(10))


@pytest.mark.parametrize("n_obs", [20, 21, 120])
def test_q95_table_matches_per_row_reference_with_nan_entries(n_obs):
    rng = RNG(n_obs)
    stack = rng.uniform(0.0, 1.3, size=(40, n_obs))
    stack[rng.random(stack.shape) < 0.02] = np.nan
    stack[3] = np.nan
    ref = np.array([q95_reference(row) for row in stack])
    got = q95_table(stack)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    assert np.isnan(got[3]) and np.isnan(got).sum() > 1


def test_q95_table_short_rows_warn_once_each():
    with pytest.warns(UserWarning, match="19 observations") as caught:
        out = q95_table(np.full((3, 19), 0.5))
    assert np.all(np.isnan(out))
    assert len(caught) == 3


# ------------------------------------------------------------ compute_metrics

def test_metrics_zero_iff_exact():
    truth = RNG(0).uniform(0.2, 0.9, size=(3, 10))
    q95 = np.full(3, 0.8)
    m = compute_metrics(truth, truth, q95)
    assert m.rmse == 0.0 and m.mae == 0.0 and m.mape == 0.0
    assert m.mae_literal == 0.0 and m.mape_literal == 0.0
    off = compute_metrics(truth + 1e-9, truth, q95)
    assert off.rmse > 0 and off.mae > 0 and off.mape > 0


def test_metrics_hand_example():
    m = compute_metrics(np.array([[0.7]]), np.array([[0.8]]), np.array([0.9]))
    assert m.rmse == pytest.approx(0.1, abs=1e-12)
    assert m.mae == pytest.approx(0.1, abs=1e-12)
    assert m.mape == pytest.approx(100 * 0.1 / 0.9, abs=1e-9)
    assert m.mae_literal == pytest.approx(0.01, abs=1e-12)
    assert m.mape_literal == pytest.approx(100 * 0.01 / 0.9, abs=1e-9)


def test_metrics_match_two_loop_oracle():
    rng = RNG(5)
    for _ in range(20):
        pred = rng.uniform(0, 1, size=(4, 7))
        truth = rng.uniform(0, 1, size=(4, 7))
        q95 = rng.uniform(0.5, 1.1, size=4)
        se = ae = pe = pe_lit = 0.0
        for i in range(4):
            for j in range(7):
                d = pred[i, j] - truth[i, j]
                se += d * d
                ae += abs(d)
                pe += abs(d) / q95[i]
                pe_lit += d * d / q95[i]
        n = 28.0
        m = compute_metrics(pred, truth, q95)
        assert m.rmse == pytest.approx(np.sqrt(se / n), abs=1e-12)
        assert m.mae == pytest.approx(ae / n, abs=1e-12)
        assert m.mape == pytest.approx(100 * pe / n, abs=1e-12)
        assert m.mae_literal == pytest.approx(se / n, abs=1e-12)
        assert m.mape_literal == pytest.approx(100 * pe_lit / n, abs=1e-12)


def test_metrics_permutation_invariance():
    rng = RNG(9)
    pred = rng.uniform(0, 1, size=(5, 6))
    truth = rng.uniform(0, 1, size=(5, 6))
    q95 = np.full(5, 0.9)
    base = compute_metrics(pred, truth, q95)
    perm_sites = rng.permutation(5)
    perm_steps = rng.permutation(6)
    shuffled = compute_metrics(pred[perm_sites][:, perm_steps],
                               truth[perm_sites][:, perm_steps],
                               q95[perm_sites])
    assert shuffled.rmse == pytest.approx(base.rmse, abs=1e-15)
    assert shuffled.mae == pytest.approx(base.mae, abs=1e-15)
    assert shuffled.mape == pytest.approx(base.mape, abs=1e-15)


def test_metrics_scaling_behavior():
    rng = RNG(11)
    pred = rng.uniform(0, 1, size=(3, 8))
    truth = rng.uniform(0, 1, size=(3, 8))
    q95 = rng.uniform(0.5, 1.0, size=3)
    base = compute_metrics(pred, truth, q95)
    s = 3.0
    scaled = compute_metrics(s * pred, s * truth, s * q95)
    # standard reading is scale-free; literal reading scales linearly
    assert scaled.mape == pytest.approx(base.mape, rel=1e-12)
    assert scaled.mape_literal == pytest.approx(s * base.mape_literal, rel=1e-12)


def test_metrics_zero_q95_site_excluded():
    pred = np.array([[0.5, 0.6], [0.5, 0.6]])
    truth = np.array([[0.4, 0.4], [0.4, 0.4]])
    with pytest.warns(UserWarning, match="excluded from MAPE"):
        m = compute_metrics(pred, truth, np.array([0.8, 0.0]))
    only_first = compute_metrics(pred[:1], truth[:1], np.array([0.8]))
    assert m.mape == pytest.approx(only_first.mape)
    assert m.mape_entry_count == 2
    assert m.entry_count == 4


def test_metrics_shape_errors():
    with pytest.raises(ShapeError):
        compute_metrics(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        compute_metrics(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3))


# ------------------------------------------------------------ evaluate_model

def test_evaluate_model_shapes_and_determinism():
    model = toy_model()
    samples = [sample(seed=i) for i in range(30)]
    lo, hi = np.zeros(8), np.ones(8)
    r1 = evaluate_model(model, samples, lo, hi)
    r2 = evaluate_model(model, samples, lo, hi)
    assert r1.horizons == (1, 2)
    assert r1.n_samples == 30
    assert r1.site_ids == ("w1", "w2", "i1", "i2")
    assert r1.q95.shape == (4,)
    for h in (1, 2):
        assert r1.metrics[h].rmse == r2.metrics[h].rmse
        assert r1.metrics[h].entry_count == 4 * 30
    assert r1.horizon_minutes(2) == 20


def test_evaluate_model_horizon_mismatch():
    model = toy_model()
    with pytest.raises(ConfigError):
        evaluate_model(model, [sample(horizons=(1, 3))], np.zeros(8), np.ones(8))
    with pytest.raises(ConfigError):
        evaluate_model(model, [], np.zeros(8), np.ones(8))


def test_predict_samples_stack_shape():
    model = toy_model()
    samples = [sample(seed=i) for i in range(3)]
    preds, truths = predict_samples(model, samples, np.zeros(8), np.ones(8))
    assert preds.shape == (3, 4, 2)
    np.testing.assert_array_equal(truths[1], samples[1].targets)


# --------------------------------------------- step-major predict_samples

def feature_grid(steps, n, seed):
    x = RNG(seed).uniform(0.0, 1.0, size=(steps, n, 8))
    x[..., 2] *= 23.0  # an hour column, so scaling moves it
    return FeatureGrid(start=datetime(2024, 1, 1), step_min=10, X=x,
                       valid=np.ones(steps, dtype=bool))


ARCHITECTURES = [("StackedGRU", "connected"), ("StackedGCN", "connected"),
                 ("TGCN", "connected"), ("CSTGCN", "connected"),
                 ("RanTGCN", "random"), ("RegTGCN", "regional")]


def arch_model(arch, connectivity, k=3, horizons=(1, 2)):
    g = toy_graph()
    part = {"connected": None, "regional": decompose_regional(g),
            "random": decompose_random(g, 2, seed=3)}[connectivity]
    spec = ModelSpec(arch, 5, k, horizons, connectivity,
                     region_count=2 if connectivity == "random" else None, seed=4)
    return build_model(spec, g, part)


@pytest.mark.parametrize("arch,connectivity", ARCHITECTURES)
def test_predict_samples_equals_per_window_predict(arch, connectivity):
    model = arch_model(arch, connectivity)
    first = make_windows(feature_grid(24, 4, seed=1), 3, (1, 2))
    second = make_windows(feature_grid(12, 4, seed=2), 3, (1, 2))
    lo, hi = compute_scaling(first + second)
    lists = {
        "consecutive": first[:5],
        "wrapped": first[-3:] + first[:2],
        "gap": first[:2] + first[4:6] + first[12:13],
        "two_grids": [w for pair in zip(first[:4], second[:4]) for w in pair],
        "loose": [apply_scaling(first[0], np.zeros(8), np.ones(8))] + first[:3],
    }
    for name, samples in lists.items():
        preds, truths = predict_samples(model, samples, lo, hi)
        assert preds.shape == (len(samples), 4, 2)
        for b, s in enumerate(samples):
            alone = model.predict(apply_scaling(s, lo, hi).inputs)
            np.testing.assert_array_equal(preds[b], alone, err_msg=f"{name} window {b}")
            np.testing.assert_array_equal(truths[b], s.targets)


@pytest.mark.parametrize("windows", [1, 2, 7])
def test_predict_samples_embeds_each_step_once(windows):
    model = arch_model("RegTGCN", "regional", k=4)
    calls = []
    embed = model.regional_embedding

    def counted(x):
        calls.append(x)
        return embed(x)

    model.regional_embedding = counted
    samples = make_windows(feature_grid(20, 4, seed=5), 4, (1, 2))[:windows]
    predict_samples(model, samples, np.zeros(8), np.ones(8))
    assert len(calls) == windows + 4 - 1
    calls.clear()
    val_rmse(model, samples, np.zeros(8), np.ones(8))
    assert len(calls) == windows + 4 - 1
    calls.clear()
    model.predict(samples[0].inputs)
    assert len(calls) == 4


@pytest.mark.parametrize("arch,connectivity", ARCHITECTURES)
def test_taped_forward_equals_predict(arch, connectivity):
    model = arch_model(arch, connectivity)
    window = RNG(6).uniform(0.0, 1.0, size=(3, 4, 8))
    taped = model.forward(window)
    clear_tape()
    np.testing.assert_array_equal(taped.values, model.predict(window))


def test_predict_samples_memory_does_not_grow_with_window_count():
    rng = RNG(8)
    sites = [SiteMeta(f"s{i:02d}", ("WI", "IA", "MN")[i % 3],
                      43.0 + float(rng.uniform(-0.5, 0.5)),
                      -89.0 + float(rng.uniform(-0.5, 0.5)), 10.0, 1, 3, 50)
             for i in range(60)]
    g = build_connected(sites, HaversineProvider())
    model = build_model(ModelSpec("RegTGCN", 128, 6, (1,), "regional"), g,
                        decompose_regional(g))
    samples = make_windows(feature_grid(46, 60, seed=9), 6, (1,))
    assert len(samples) == 40

    def peak(window_list):
        tracemalloc.start()
        try:
            predict_samples(model, window_list, np.zeros(8), np.ones(8))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(samples[:6]), peak(samples)
    assert many <= 1.1 * few, f"peak {many} bytes for 40 windows, {few} for 6"


# ------------------------------------------------------- generality inference

def trained_bundle(tmp_path, weeks=((2024, 1), (2024, 2))):
    samples = [sample(week=w, seed=10 * wi + i)
               for wi, w in enumerate(weeks) for i in range(4)]
    model = toy_model(seed=2)
    bundle, _ = train(model, samples,
                      TrainConfig(epochs=2, horizons=(1, 2), seed=0), tmp_path)
    return bundle


def test_generality_refuses_overlapping_weeks(tmp_path):
    bundle = trained_bundle(tmp_path)
    with pytest.raises(ConfigError, match="2024-W02"):
        generality_inference(restore_model(bundle), bundle,
                             [sample(week=(2024, 2), seed=99)])


def test_generality_runs_on_disjoint_weeks(tmp_path):
    bundle = trained_bundle(tmp_path)
    held_out = [sample(week=(2024, 10), seed=50 + i) for i in range(25)]
    r1 = generality_inference(restore_model(bundle), bundle, held_out)
    r2 = generality_inference(restore_model(bundle), bundle, held_out)
    assert r1.metrics[1].rmse == r2.metrics[1].rmse
    assert r1.n_samples == 25


# ------------------------------------------------------------------ reports

def fake_report(seed):
    model = toy_model(seed=seed)
    samples = [sample(seed=seed * 100 + i) for i in range(25)]
    return evaluate_model(model, samples, np.zeros(8), np.ones(8))


def test_metric_rows_and_csv(tmp_path):
    report = fake_report(1)
    rows = metric_rows("RegTGCN", "regional", 7, report)
    assert [r["horizon_min"] for r in rows] == [10, 20]
    assert rows[0]["seed"] == 7
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 3
    first = dict(zip(METRICS_COLUMNS, lines[1].split(",")))
    assert float(first["rmse"]) == report.metrics[1].rmse


def test_csv_rows_sorted_deterministically(tmp_path):
    report = fake_report(2)
    rows = metric_rows("TGCN", "connected", 1, report) + \
        metric_rows("RegTGCN", "regional", 0, report)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(a, rows)
    write_metrics_csv(b, list(reversed(rows)))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().strip().split("\n")[1].startswith("RegTGCN")


def test_aggregate_comparison_mean_std():
    rows = []
    for seed, rmse in ((0, 0.10), (1, 0.14)):
        rows.append({"model": "RegTGCN", "connectivity": "regional",
                     "horizon_min": 10, "seed": seed, "rmse": rmse,
                     "mae": 0.05, "mape": 5.0, "mae_literal": 0.01,
                     "mape_literal": 1.0})
    table = aggregate_comparison(rows)
    cell = table["RegTGCN"]["cells"]["10"]["rmse"]
    assert cell["mean"] == pytest.approx(0.12)
    assert cell["std"] == pytest.approx(0.02)
    assert cell["n"] == 2
    assert table["RegTGCN"]["connectivity"] == "regional"


def test_comparison_json_structure(tmp_path):
    report = fake_report(3)
    rows = metric_rows("RegTGCN", "regional", 0, report)
    path = tmp_path / "comparison.json"
    write_comparison_json(path, rows,
                          overlap_costs={"connected": 24.0, "regional": 8.0},
                          literal_headline=True)
    doc = json.loads(path.read_text())
    assert doc["horizon_minutes"] == [10, 20]
    assert doc["headline"] == "literal_eq14"
    assert doc["overlap_cost"]["regional"] == 8.0
    assert "10" in doc["models"]["RegTGCN"]["cells"]


def test_timeseries_alignment(tmp_path):
    model = toy_model()
    samples = [sample(seed=i) for i in range(4)]
    preds, _ = predict_samples(model, samples, np.zeros(8), np.ones(8))
    path = tmp_path / "timeseries.csv"
    write_timeseries(path, samples, preds, ("w1", "w2", "i1", "i2"))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "site_id,time,truth,pred_h10,pred_h20"
    # sample 0 anchor 2024-01-01T00:00, horizon 1 target at 00:10
    row = next(l for l in lines[1:] if l.startswith("w1,2024-01-01T00:10:00"))
    cells = row.split(",")
    assert float(cells[2]) == samples[0].targets[0, 0]
    assert float(cells[3]) == preds[0, 0, 0]
    # later target times can carry both horizons: anchor 00:10 + 10 == 00:20
    both = next(l for l in lines[1:] if l.startswith("w1,2024-01-01T00:20:00"))
    assert both.split(",")[3] != "" and both.split(",")[4] != ""


def test_timeseries_shape_guard(tmp_path):
    model = toy_model()
    samples = [sample(seed=i) for i in range(2)]
    preds, _ = predict_samples(model, samples, np.zeros(8), np.ones(8))
    with pytest.raises(ShapeError):
        write_timeseries(tmp_path / "x.csv", samples, preds, ("w1", "w2"))
