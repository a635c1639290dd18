"""Tests for the loss, validation split, and training loop."""

import re

import numpy as np
import pytest

from conftest import MISFITS, sample
from regraph import heap
from regraph.data import (
    SyntheticConfig,
    generate_synthetic,
    interpolate_to_grid,
    load_records,
    make_windows,
    split_by_weeks,
)
from regraph.errors import ConfigError, NumericError
from regraph.graph import SiteMeta, build_connected, decompose_regional, load_sites
from regraph.heap import pin_heap
from regraph.models import ModelSpec, build_model, load_checkpoint, restore_model
from regraph.numerics import constant
from regraph.training import (
    BEST_CHECKPOINT,
    TrainConfig,
    mse_loss,
    split_validation,
    train,
    val_rmse,
)

RNG = np.random.default_rng


def site(site_id, region="WI", lat=43.0, lon=-89.0):
    return SiteMeta(site_id=site_id, region=region, latitude=lat, longitude=lon,
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
    part = decompose_regional(g)
    spec = ModelSpec("RegTGCN", hidden, k, horizons, "regional", seed=seed)
    return build_model(spec, g, part)


# ---------------------------------------------------------------- mse_loss

def test_mse_loss_zero_on_match():
    x = constant(RNG(0).normal(size=(4, 3)))
    assert float(mse_loss(x, x).values) == 0.0


def test_mse_loss_constant_offset():
    t = RNG(0).normal(size=(5, 2))
    loss = mse_loss(constant(t + 0.1), constant(t))
    assert float(loss.values) == pytest.approx(0.01, abs=1e-15)


def test_mse_loss_matches_two_loop_oracle():
    rng = RNG(3)
    for _ in range(20):
        p = rng.normal(size=(5, 3))
        t = rng.normal(size=(5, 3))
        total = 0.0
        for i in range(5):
            for j in range(3):
                total += (p[i, j] - t[i, j]) ** 2
        expected = total / 15.0
        assert float(mse_loss(constant(p), constant(t)).values) == pytest.approx(
            expected, abs=1e-15)


def test_mse_loss_shape_mismatch():
    from regraph.errors import ShapeError
    with pytest.raises(ShapeError):
        mse_loss(constant(np.zeros((2, 2))), constant(np.zeros((3, 2))))


# -------------------------------------------------------- validation split

def test_split_single_sample_has_no_validation():
    fit, val = split_validation([sample(seed=1)])
    assert len(fit) == 1 and val == []


def test_split_holds_out_most_recent_tenth():
    samples = [sample(seed=i) for i in range(20)]
    fit, val = split_validation(samples)
    assert len(fit) == 18 and len(val) == 2
    latest = max(s.anchor_time for s in samples)
    assert max(v.anchor_time for v in val) == latest
    assert max(f.anchor_time for f in fit) < min(v.anchor_time for v in val)


def test_split_small_sets_keep_one_of_each():
    samples = [sample(seed=i) for i in range(3)]
    fit, val = split_validation(samples)
    assert len(fit) == 2 and len(val) == 1


def test_split_is_order_insensitive():
    samples = [sample(seed=i) for i in range(11)]
    fit_a, val_a = split_validation(samples)
    fit_b, val_b = split_validation(list(reversed(samples)))
    assert [s.anchor_time for s in fit_a] == [s.anchor_time for s in fit_b]
    assert [s.anchor_time for s in val_a] == [s.anchor_time for s in val_b]


# ------------------------------------------------------------- TrainConfig

def test_train_config_validation():
    TrainConfig(epochs=1, horizons=(1,), learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0, horizons=(1,))
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, horizons=(1,), learning_rate=-1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, horizons=(1,), grad_clip_norm=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, horizons=(1,), val_fraction=1.0)
    TrainConfig(epochs=1, horizons=(1,), weight_decay=1.0)
    for decay in (-1e-4, 1.5, 1e300):
        with pytest.raises(ConfigError, match=r"weight_decay must lie in \[0, 1\]"):
            TrainConfig(epochs=1, horizons=(1,), weight_decay=decay)


@pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "rmsprop_smoothing",
                                   "grad_clip_norm", "val_fraction", "rmsprop_decay"])
def test_train_config_rejects_nan(field):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(epochs=1, horizons=(1,), **{field: float("nan")})


# ------------------------------------------------------------------- train

def test_null_step_leaves_parameters_unchanged(tmp_path):
    model = toy_model()
    before = {name: p.values.copy() for name, p in model.named_params().items()}
    cfg = TrainConfig(epochs=2, horizons=(1, 2), learning_rate=0.0,
                      weight_decay=0.0)
    train(model, [sample(seed=i) for i in range(3)], cfg, tmp_path)
    for name, p in model.named_params().items():
        np.testing.assert_array_equal(p.values, before[name])


def test_single_sample_loss_collapses(tmp_path):
    # tiny model on arbitrary targets: expect a large drop, not full recall
    model = toy_model(hidden=8)
    cfg = TrainConfig(epochs=200, horizons=(1, 2), weight_decay=0.0,
                      shuffle=False)
    _, report = train(model, [sample(seed=1)], cfg, tmp_path)
    assert min(report.train_loss) < report.train_loss[0] / 10
    assert not report.has_validation


def test_memorization_loss_smoothly_decreases(tmp_path):
    model = toy_model(hidden=8)
    cfg = TrainConfig(epochs=120, horizons=(1, 2), weight_decay=0.0,
                      shuffle=False)
    _, report = train(model, [sample(seed=2)], cfg, tmp_path)
    smoothed = np.convolve(report.train_loss, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(smoothed[20:]) <= 1e-6)


def test_same_seed_gives_identical_artifacts(tmp_path):
    samples = [sample(week=(2024, 1), seed=i) for i in range(4)] + \
              [sample(week=(2024, 2), seed=10 + i) for i in range(2)]
    cfg = TrainConfig(epochs=3, horizons=(1, 2), seed=7)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        train(toy_model(seed=3), samples, cfg, out)
        outs.append(out)
    for name in (BEST_CHECKPOINT, "loss_trace.csv", "train_report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_counts_minor_faults_per_epoch_outside_the_report(tmp_path):
    samples = [sample(seed=i) for i in range(3)]
    _, report = train(toy_model(), samples, TrainConfig(epochs=2, horizons=(1, 2)), tmp_path)
    assert len(report.epoch_minor_faults) == len(report.train_loss) == 2
    assert all(type(f) is int and f >= 0 for f in report.epoch_minor_faults)
    assert "fault" not in (tmp_path / "train_report.json").read_text()


class FakeLibc:
    """A C library whose mallopt calls are recorded."""

    def __init__(self, glibc=True):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append((param, value))
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.0"


@pytest.fixture
def unpinned():
    """A process whose heap is not pinned yet, as far as ``pin_heap`` knows."""
    pin_heap.cache_clear()
    yield
    pin_heap.cache_clear()


def test_train_pins_glibc_heap_thresholds(monkeypatch, unpinned, tmp_path):
    import ctypes
    libc = FakeLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    train(toy_model(), [sample(seed=i) for i in range(3)],
          TrainConfig(epochs=2, horizons=(1, 2)), tmp_path)
    pin_heap()
    # once per process, though train and its validation each ask
    assert libc.calls == [(heap.M_MMAP_THRESHOLD, heap.PINNED_MMAP_THRESHOLD),
                          (heap.M_TRIM_THRESHOLD, heap.PINNED_TRIM_THRESHOLD)]
    other = FakeLibc(glibc=False)  # another C library's parameters differ
    monkeypatch.setattr(ctypes, "CDLL", lambda name: other)
    pin_heap.cache_clear()
    pin_heap()
    assert other.calls == []


def test_train_runs_where_libc_cannot_be_loaded(tmp_path, monkeypatch, unpinned):
    import ctypes

    def no_libc(name):
        raise OSError("no C library here")
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    _, report = train(toy_model(), [sample(seed=i) for i in range(3)],
                      TrainConfig(epochs=1, horizons=(1, 2)), tmp_path)
    assert len(report.train_loss) == 1 and np.isfinite(report.train_loss[0])


def test_validation_tracking_and_early_stop(tmp_path):
    samples = [sample(week=(2024, 1), seed=i) for i in range(4)] + \
              [sample(week=(2024, 2), seed=20 + i) for i in range(2)]
    model = toy_model()
    cfg = TrainConfig(epochs=50, horizons=(1, 2), learning_rate=0.0,
                      weight_decay=0.0, patience=1)
    _, report = train(model, samples, cfg, tmp_path)
    # frozen parameters: epoch 1 is best, epoch 2 fails to improve, stop
    assert report.best_epoch == 1
    assert report.stopped_early
    assert len(report.train_loss) == 2
    assert report.has_validation
    assert len(report.val_rmse[0]) == 2


def test_best_checkpoint_round_trip(tmp_path):
    samples = [sample(week=(2024, 1), seed=i) for i in range(4)] + \
              [sample(week=(2024, 2), seed=30 + i) for i in range(2)]
    model = toy_model(seed=5)
    cfg = TrainConfig(epochs=5, horizons=(1, 2), seed=1)
    bundle, report = train(model, samples, cfg, tmp_path)

    restored = restore_model(bundle)
    _, val_raw = split_validation(samples)
    rmse = val_rmse(restored, val_raw, bundle.scaling_lo, bundle.scaling_hi)
    assert float(np.mean(rmse)) == pytest.approx(report.best_score, abs=1e-15)
    assert bundle.train_weeks == ["2024-W01", "2024-W02"]


def test_model_weights_end_at_best_epoch(tmp_path):
    samples = [sample(week=(2024, 1), seed=i) for i in range(4)] + \
              [sample(week=(2024, 2), seed=40 + i) for i in range(2)]
    model = toy_model(seed=6)
    cfg = TrainConfig(epochs=4, horizons=(1, 2), seed=2)
    _, _ = train(model, samples, cfg, tmp_path)
    bundle = load_checkpoint(tmp_path / BEST_CHECKPOINT)
    for name, p in model.named_params().items():
        np.testing.assert_array_equal(p.values, bundle.weights[name])


def test_checkpoint_cadence(tmp_path):
    cfg = TrainConfig(epochs=4, horizons=(1, 2), checkpoint_every=2)
    train(toy_model(), [sample(seed=i) for i in range(2)], cfg, tmp_path)
    assert (tmp_path / "checkpoint_epoch_0002.ckpt").exists()
    assert (tmp_path / "checkpoint_epoch_0004.ckpt").exists()
    assert not (tmp_path / "checkpoint_epoch_0003.ckpt").exists()


def test_loss_trace_matches_report(tmp_path):
    samples = [sample(week=(2024, 1), seed=i) for i in range(3)] + \
              [sample(week=(2024, 2), seed=50)]
    cfg = TrainConfig(epochs=3, horizons=(1, 2), seed=4)
    _, report = train(toy_model(), samples, cfg, tmp_path)
    lines = (tmp_path / "loss_trace.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_rmse_h1,val_rmse_h2"
    assert len(lines) == 1 + len(report.train_loss)
    first = lines[1].split(",")
    assert float(first[1]) == report.train_loss[0]
    assert float(first[2]) == report.val_rmse[0][0]


def test_non_finite_loss_aborts_with_location(tmp_path):
    model = toy_model()
    model.decoder.w1.values[0, 0] = np.inf
    cfg = TrainConfig(epochs=1, horizons=(1, 2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="epoch 1, step 1"):
            train(model, [sample()], cfg, tmp_path)


def test_train_input_validation(tmp_path):
    model = toy_model()
    cfg = TrainConfig(epochs=1, horizons=(1, 2))
    with pytest.raises(ConfigError):
        train(model, [], cfg, tmp_path)
    with pytest.raises(ConfigError):
        train(model, [sample(k=4)], cfg, tmp_path)
    with pytest.raises(ConfigError):
        train(model, [sample(horizons=(1, 3))], cfg, tmp_path)
    for horizons in ((1,), (), (2, 1)):  # ModelSpec's rules refuse the last two for a model
        with pytest.raises(ConfigError, match=f"config horizons {re.escape(str(horizons))} "
                                              r"do not match model horizons \(1, 2\)"):
            train(model, [sample()], TrainConfig(epochs=1, horizons=horizons), tmp_path)


def test_gradient_clipping_rescales_global_norm():
    # RmsProp clips inside its step: the update equals the unclipped update
    # on gradients scaled by hand, bit for bit, and the gradients are only
    # read, so two parameters may share one gradient array.
    from regraph.numerics import RmsProp, parameter
    rng = np.random.default_rng(31)
    start = [rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=4)]
    shared = rng.normal(size=(2, 3))
    grads = [shared, shared, rng.normal(size=4)]
    given = [g.copy() for g in grads]
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    for clip_norm, fires in ((0.5 * norm, True), (5.0 * norm, False)):
        hand = [g * (clip_norm / norm) for g in grads] if fires else grads
        if fires:
            assert np.sqrt(sum(np.sum(g * g) for g in hand)) == pytest.approx(clip_norm)
        for weight_decay in (0.0, 1e-2):
            runs = []
            for clip, step_grads in ((clip_norm, grads), (None, hand)):
                params = [parameter(v) for v in start]
                opt = RmsProp(params, learning_rate=1e-2, weight_decay=weight_decay,
                              decay_rate=0.99, smoothing=1e-8, clip_norm=clip)
                for _ in range(2):
                    for p, g in zip(params, step_grads):
                        p.grad = g
                    opt.step()
                runs.append([p.values for p in params] + opt.sq_avg)
            for got, ref in zip(*runs):
                np.testing.assert_array_equal(got, ref)
            for g, ref in zip(grads, given):
                np.testing.assert_array_equal(g, ref)


@pytest.mark.parametrize("arch", ["TGCN", "StackedGRU"])
def test_one_lag_models_train_with_a_zero_gradient_for_the_reset_gate(tmp_path, arch):
    # From the all-zero state the r gate does not move the loss at k = 1.
    model = build_model(ModelSpec(arch, 6, 1, (1, 2), "connected", seed=2), toy_graph())
    r_gates = [p for name, p in model.named_params().items() if name.endswith(".wr")]
    before = [p.values.copy() for p in r_gates]
    cfg = TrainConfig(epochs=2, horizons=(1, 2), weight_decay=0.0)
    _, report = train(model, [sample(k=1, seed=s) for s in range(4)], cfg, tmp_path)
    assert np.all(np.isfinite(report.train_loss))
    for p, values in zip(r_gates, before):
        np.testing.assert_array_equal(p.values, values)


@pytest.mark.parametrize("setting", MISFITS)
def test_train_refuses_a_later_window_that_does_not_fit_naming_both(tmp_path, setting):
    later, named = MISFITS[setting]
    samples = [sample(seed=i) for i in range(9)] + [later()]
    with pytest.raises(ConfigError, match=f"window 9: {named}"):
        train(toy_model(), samples, TrainConfig(epochs=1, horizons=(1, 2)), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_train_refuses_windows_of_another_grid_step_naming_both(tmp_path):
    data = tmp_path / "data"
    generate_synthetic(SyntheticConfig(n_sites=3, n_regions=1, days=1, seed=2), data)
    g = build_connected(load_sites(data / "sites.csv"))
    grid = interpolate_to_grid(load_records(data / "records.csv"), g.nodes, 10, 6)
    windows = make_windows(grid, 3, (1,), 10)[:4]
    model = build_model(ModelSpec("TGCN", 4, 3, (1,), "connected", grid_step_min=5), g)
    with pytest.raises(ConfigError, match="model reads a 5-minute grid, "
                                          "samples carry 10-minute steps"):
        train(model, windows, TrainConfig(epochs=1, horizons=(1,)), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_default_weight_decay_trains_with_a_constant_input_column(tmp_path):
    # One train week makes the week-id column constant, so its weights get a
    # zero gradient and only the weight decay moves them.
    data = tmp_path / "data"
    generate_synthetic(SyntheticConfig(n_sites=24, n_regions=3, days=14, seed=1), data)
    g = build_connected(load_sites(data / "sites.csv"))
    frames = interpolate_to_grid(load_records(data / "records.csv"), g.nodes, 10, 6)
    horizons = (1, 3, 12, 36)
    windows = make_windows(frames, 6, horizons, 10)
    train_s, _, _ = split_by_weeks(windows, ["2024-W01"], ["2024-W02"])
    model = build_model(ModelSpec("RegTGCN", 16, 6, horizons, "regional"),
                        g, decompose_regional(g))
    cfg = TrainConfig(epochs=3, horizons=horizons, weight_decay=1e-4)
    _, report = train(model, train_s[:60], cfg, tmp_path / "run")
    assert all(np.isfinite(loss) and loss < 1.0 for loss in report.train_loss)
