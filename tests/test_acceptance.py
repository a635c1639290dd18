"""Acceptance gate: nine checks covering gradient fidelity, oracle
equivalence, partition invariants, permutation equivariance, training
quality, end-to-end determinism, overlap accounting, the comparative
baseline, and metric definitions.

Every check prints one PASS/FAIL line; the lines are echoed again in the
pytest terminal summary. Tolerances and runtime budgets are asserted
inside each test, so a red test is a hard acceptance failure.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np

import conftest
from regraph.cli import main as cli_main
from regraph.data import (SyntheticConfig, generate_synthetic,
                          interpolate_to_grid, load_records, make_windows,
                          split_by_weeks)
from regraph.evaluation import compute_metrics, evaluate_model, q95_table
from regraph.graph import (HaversineProvider, SiteMeta, build_connected,
                           decompose_random, decompose_regional, degree,
                           load_sites, partition_from_assignment)
from regraph.models import (AttentionAggregator, Decoder, GcnGruCell,
                            GcnLayer, ModelSpec, StructuralConv,
                            attention_aggregate, build_model, gcn_forward,
                            gru_step, structural_conv)
from regraph.numerics import backward, clear_tape, constant, mean_all, mul, no_grad
from regraph.training import TrainConfig, mse_loss, train


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        line = f"criterion {num} ({label}): FAIL"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"criterion {num} ({label}): PASS"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def note(line):
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def toy_sites(rng, n, labels, lat0=43.0, lon0=-89.0, spread=0.3):
    return [SiteMeta(f"s{i:02d}", labels[i % len(labels)],
                     lat0 + float(rng.uniform(-spread, spread)),
                     lon0 + float(rng.uniform(-spread, spread)),
                     float(rng.uniform(5.0, 90.0)), int(rng.integers(0, 2)),
                     int(rng.integers(0, 9)), int(rng.integers(10, 200)))
            for i in range(n)]


def synth_windows(out_dir, synth_cfg, k, horizons):
    generate_synthetic(synth_cfg, out_dir)
    sites = load_sites(out_dir / "sites.csv")
    records = load_records(out_dir / "records.csv")
    frames = interpolate_to_grid(records, sites, synth_cfg.grid_step_min)
    samples = make_windows(frames, k, horizons, synth_cfg.grid_step_min)
    return sites, samples


# ------------------------------------------------- 1: gradient fidelity

def fd_worst_error(loss_fn, params, h=1e-5):
    """Largest relative disagreement between autodiff and central FD."""
    clear_tape()
    backward(loss_fn())
    grads = [p.grad.copy() for p in params]
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.values.ravel()
        gf = g.ravel()
        for j in range(flat.size):
            keep = flat[j]
            with no_grad():
                flat[j] = keep + h
                up = float(loss_fn().values)
                flat[j] = keep - h
                down = float(loss_fn().values)
            flat[j] = keep
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(gf[j] - fd) / max(abs(gf[j]), abs(fd), 1e-5))
    return worst


def squared_mean(out):
    return mean_all(mul(out, out))


def test_criterion_1_gradient_fidelity(tmp_path):
    with criterion(1, "gradient fidelity"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0

        gcn = GcnLayer(rng, 5, 4)
        operator = constant(rng.uniform(-0.5, 0.5, (4, 4)))
        feats = constant(rng.uniform(-1.0, 1.0, (4, 5)))
        worst = max(worst, fd_worst_error(
            lambda: squared_mean(gcn_forward(gcn, operator, feats)),
            [gcn.w, gcn.b]))

        conv = StructuralConv(rng, 5, 4)
        binary = np.zeros((4, 4))
        binary[[0, 1, 1, 2], [1, 0, 2, 1]] = 1.0
        neighbors = constant(binary)
        worst = max(worst, fd_worst_error(
            lambda: squared_mean(structural_conv(conv, neighbors, feats)),
            [conv.w]))

        cell = GcnGruCell(rng, 5, 3)
        conv_out = constant(rng.uniform(-1.0, 1.0, (4, 5)))
        h_prev = constant(rng.uniform(-1.0, 1.0, (4, 3)))
        worst = max(worst, fd_worst_error(
            lambda: squared_mean(gru_step(cell, conv_out, h_prev)),
            [cell.w_z, cell.w_r, cell.w_c]))

        agg = AttentionAggregator(rng, 4)
        states = [constant(rng.uniform(-1.0, 1.0, (3, 2))) for _ in range(4)]
        worst = max(worst, fd_worst_error(
            lambda: squared_mean(attention_aggregate(agg, states)),
            [agg.scores]))

        dec = Decoder(rng, 5, 6, 3)
        dec_in = constant(rng.uniform(-1.0, 1.0, (4, 5)))
        worst = max(worst, fd_worst_error(
            lambda: squared_mean(dec.forward(dec_in)),
            [dec.w0, dec.b0, dec.w1, dec.b1]))

        sites = toy_sites(rng, 4, ["WI", "MN"], spread=0.15)
        graph = build_connected(sites, HaversineProvider())
        part = decompose_regional(graph)
        model = build_model(
            ModelSpec("RegTGCN", 8, 3, (1, 2), "regional", seed=3), graph, part)
        window = rng.uniform(0.0, 1.0, (3, 4, 8))
        targets = constant(rng.uniform(0.0, 1.0, (4, 2)))
        worst = max(worst, fd_worst_error(
            lambda: mse_loss(model.forward(window), targets), model.params()))

        elapsed = time.perf_counter() - started
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


# ------------------------------------------------ 2: oracle equivalence

def _sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def _loop_matmul(a, b):
    n, m = len(a), len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(len(b)):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return np.array(out)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence"):
        rng = np.random.default_rng(202)
        tol = 1e-12
        for trial in range(100):
            n = int(rng.integers(2, 6))
            fin = int(rng.integers(1, 5))
            fout = int(rng.integers(1, 5))
            hid = int(rng.integers(1, 5))

            with no_grad():
                layer = GcnLayer(rng, fin, fout)
                operator = rng.uniform(-0.6, 0.6, (n, n))
                feats = rng.uniform(-1.0, 1.0, (n, fin))
                mine = gcn_forward(layer, constant(operator), constant(feats)).values
            pre = _loop_matmul(_loop_matmul(operator, feats), layer.w.values)
            want = np.array([[_sig(pre[i][o] + layer.b.values[0][o])
                              for o in range(fout)] for i in range(n)])
            assert np.max(np.abs(mine - want)) <= tol

            with no_grad():
                conv = StructuralConv(rng, fin, fout)
                binary = (rng.uniform(0, 1, (n, n)) < 0.5).astype(float)
                binary = np.triu(binary, 1)
                binary = binary + binary.T
                mine = structural_conv(conv, constant(binary), constant(feats)).values
            gathered = feats + _loop_matmul(binary, feats)
            pre = _loop_matmul(gathered, conv.w.values)
            want = np.array([[_sig(pre[i][o]) for o in range(fout)]
                             for i in range(n)])
            assert np.max(np.abs(mine - want)) <= tol

            with no_grad():
                cell = GcnGruCell(rng, fin, hid)
                conv_in = rng.uniform(-1.0, 1.0, (n, fin))
                h_prev = rng.uniform(-1.0, 1.0, (n, hid))
                mine = gru_step(cell, constant(conv_in), constant(h_prev)).values
            stacked = np.hstack([conv_in, h_prev])
            z = np.vectorize(_sig)(_loop_matmul(stacked, cell.w_z.values))
            r = np.vectorize(_sig)(_loop_matmul(stacked, cell.w_r.values))
            gated = np.hstack([conv_in, h_prev * r])
            cand = np.tanh(_loop_matmul(gated, cell.w_c.values))
            want = (1.0 - z) * h_prev + z * cand
            assert np.max(np.abs(mine - want)) <= tol

            k = int(rng.integers(1, 5))
            with no_grad():
                agg = AttentionAggregator(rng, k)
                states = [rng.uniform(-1.0, 1.0, (n, hid)) for _ in range(k)]
                mine = attention_aggregate(
                    agg, [constant(s) for s in states]).values
            exps = [math.exp(v) for v in agg.scores.values]
            weights = [e / sum(exps) for e in exps]
            want = np.zeros((n, hid))
            for i in range(n):
                for j in range(hid):
                    want[i, j] = sum(weights[q] * states[q][i][j]
                                     for q in range(k))
            assert np.max(np.abs(mine - want)) <= tol

            pred = rng.uniform(0.0, 1.2, (n, fin))
            truth = rng.uniform(0.0, 1.2, (n, fin))
            with no_grad():
                mine_loss = float(mse_loss(constant(pred), constant(truth)).values)
            acc = 0.0
            for i in range(n):
                for j in range(fin):
                    acc += (pred[i][j] - truth[i][j]) ** 2
            assert abs(mine_loss - acc / (n * fin)) <= tol

            q95 = rng.uniform(0.5, 1.3, n)
            if trial % 5 == 0:
                q95[0] = 0.0
            if trial % 7 == 0:
                q95[-1] = float("nan")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = compute_metrics(pred, truth, q95)
            se = ae = 0.0
            mape = mape_lit = 0.0
            usable = 0
            for i in range(n):
                for j in range(fin):
                    err = pred[i][j] - truth[i][j]
                    se += err * err
                    ae += abs(err)
                included = math.isfinite(q95[i]) and q95[i] > 0
                usable += fin if included else 0
                if included:
                    for j in range(fin):
                        err = pred[i][j] - truth[i][j]
                        mape += abs(err) / q95[i]
                        mape_lit += err * err / q95[i]
            assert abs(got.rmse - math.sqrt(se / (n * fin))) <= tol
            assert abs(got.mae - ae / (n * fin)) <= tol
            assert abs(got.mae_literal - se / (n * fin)) <= tol
            if usable:
                assert abs(got.mape - 100.0 * mape / usable) <= tol
                assert abs(got.mape_literal - 100.0 * mape_lit / usable) <= tol
            else:
                assert math.isnan(got.mape) and math.isnan(got.mape_literal)


# ----------------------------------------------- 3: partition invariants

def test_criterion_3_partition_invariants():
    with criterion(3, "partition invariants"):
        rng = np.random.default_rng(303)
        provider = HaversineProvider()
        violations = 0
        for trial in range(1000):
            n = int(rng.integers(2, 16))
            labels = [f"R{j}" for j in range(int(rng.integers(1, 6)))]
            sites = [SiteMeta(f"s{i:02d}", labels[int(rng.integers(len(labels)))],
                              float(rng.uniform(38.0, 46.0)),
                              float(rng.uniform(-96.0, -86.0)),
                              float(rng.uniform(5.0, 90.0)),
                              int(rng.integers(0, 2)), int(rng.integers(0, 9)),
                              int(rng.integers(10, 200)))
                     for i in range(n)]
            graph = build_connected(sites, provider)

            regional = decompose_regional(graph)
            covered = sorted(int(i) for lbl in regional.region_order
                             for i in regional.node_indices[lbl])
            if covered != list(range(n)):
                violations += 1
            for lbl in regional.region_order:
                sub = regional.subgraphs[lbl]
                idx = regional.node_indices[lbl]
                for j in range(sub.n):
                    if degree(sub, j) > degree(graph, int(idx[j])):
                        violations += 1

            r = int(rng.integers(1, n + 1))
            random_part = decompose_random(graph, r, seed=trial,
                                           provider=provider)
            covered = sorted(int(i) for lbl in random_part.region_order
                             for i in random_part.node_indices[lbl])
            if covered != list(range(n)):
                violations += 1
            for lbl in random_part.region_order:
                sub = random_part.subgraphs[lbl]
                for j in range(sub.n):
                    if degree(sub, j) > graph.n - 1:
                        violations += 1
        assert violations == 0, f"{violations} partition violations"


# ------------------------------------------ 4: permutation equivariance

def test_criterion_4_permutation_equivariance():
    with criterion(4, "permutation equivariance"):
        rng = np.random.default_rng(404)
        provider = HaversineProvider()
        sites = toy_sites(rng, 8, ["IA", "KS", "WI"])
        graph = build_connected(sites, provider)
        regional = decompose_regional(graph)
        random_part = decompose_random(graph, 3, seed=7, provider=provider)

        window = rng.uniform(0.0, 1.0, (3, 8, 8))
        perm = rng.permutation(8)
        sites_p = [sites[int(p)] for p in perm]
        graph_p = build_connected(sites_p, provider)
        partitions = {
            "connected": (None, None),
            "regional": (regional, decompose_regional(graph_p)),
            "random": (random_part, partition_from_assignment(
                graph_p, dict(random_part.region_of), "random", provider)),
        }

        for arch, connectivity in (("StackedGRU", "connected"),
                                   ("StackedGCN", "connected"),
                                   ("TGCN", "connected"),
                                   ("CSTGCN", "connected"),
                                   ("RanTGCN", "random"),
                                   ("RegTGCN", "regional")):
            spec = ModelSpec(arch, 6, 3, (1, 2), connectivity,
                             seed=17)
            base_part, perm_part = partitions[connectivity]
            base = build_model(spec, graph, base_part).predict(window)
            swapped = build_model(spec, graph_p, perm_part).predict(
                window[:, perm, :])
            gap = float(np.max(np.abs(swapped - base[perm])))
            assert gap <= 1e-12, f"{arch}: permutation gap {gap:.3e}"


# ------------------------------------------------------ 5: memorization

def test_criterion_5_memorization(tmp_path):
    with criterion(5, "memorization"):
        started = time.perf_counter()

        sites, samples = synth_windows(
            tmp_path / "tiny", SyntheticConfig(n_sites=4, n_regions=2, days=2,
                                               seed=5), 3, (1, 3))
        graph = build_connected(sites, HaversineProvider())
        model = build_model(
            ModelSpec("RegTGCN", 64, 3, (1, 3), "regional", seed=0),
            graph, decompose_regional(graph))
        losses = []
        for epochs, lr in ((400, 1e-3), (100, 2e-4)):
            _, report = train(model, [samples[0]],
                              TrainConfig(epochs=epochs, horizons=(1, 3),
                                          learning_rate=lr, weight_decay=0.0,
                                          seed=0, patience=epochs),
                              tmp_path / "run_single")
            losses += list(report.train_loss)
        assert len(losses) <= 500
        assert min(losses) < 1e-4, f"single-window loss floor {min(losses):.2e}"

        sites, samples = synth_windows(
            tmp_path / "wide", SyntheticConfig(n_sites=24, n_regions=4,
                                               days=14, seed=7), 6, (1, 3))
        graph = build_connected(sites, HaversineProvider())
        model = build_model(
            ModelSpec("RegTGCN", 64, 6, (1, 3), "regional", seed=0),
            graph, decompose_regional(graph))
        best = float("inf")
        epochs_run = 0
        while epochs_run < 200:
            _, report = train(model, samples,
                              TrainConfig(epochs=5, horizons=(1, 3),
                                          learning_rate=1e-3, weight_decay=0.0,
                                          seed=0, patience=5),
                              tmp_path / "run_wide")
            epochs_run += len(report.train_loss)
            best = min(best, report.best_score)
            if best < 0.095:
                break
        elapsed = time.perf_counter() - started
        assert best < 0.10, f"validation RMSE {best:.4f} after {epochs_run} epochs"
        assert epochs_run <= 200
        assert elapsed < 900.0, f"memorization checks took {elapsed:.0f}s"
        note(f"  criterion 5: val RMSE {best:.4f} in {epochs_run} epochs, "
             f"{elapsed:.0f}s")


# ------------------------------------------------------- 6: determinism

E2E_CONFIG = {
    "data": {
        "synth": {"n_sites": 6, "n_regions": 2, "days": 14, "seed": 11,
                  "capacity_range": [20, 60]},
        "k": 4, "horizons": [1, 3],
        "train_weeks": ["2024-W01"], "test_weeks": ["2024-W02"],
    },
    "model": {"architecture": "RegTGCN", "hidden": 8, "seed": 1},
    "train": {"epochs": 3, "seed": 3, "weight_decay": 0.0},
}


def _run_pipeline(root, cfg_path):
    data = root / "data"
    graph = root / "graph.json"
    run = root / "run"
    assert cli_main(["synth", "--config", str(cfg_path),
                     "--out", str(data)]) == 0
    assert cli_main(["build-graph", "--sites", str(data / "sites.csv"),
                     "--strategy", "regional", "--out", str(graph)]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--graph", str(graph), "--out", str(run)]) == 0
    assert cli_main(["predict", "--checkpoint",
                     str(run / "checkpoint_best.ckpt"), "--data", str(data),
                     "--out", str(root / "preds.csv")]) == 0
    assert cli_main(["evaluate", "--runs", str(run),
                     "--out", str(root / "eval")]) == 0


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "determinism"):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(E2E_CONFIG, indent=2))
        first = tmp_path / "a"
        second = tmp_path / "b"
        for root in (first, second):
            root.mkdir()
            _run_pipeline(root, cfg_path)
        tracked = ["data/sites.csv", "data/records.csv", "graph.json",
                   "run/checkpoint_best.ckpt", "run/train_report.json",
                   "run/loss_trace.csv", "preds.csv", "eval/metrics.csv",
                   "eval/comparison.json", "eval/timeseries_run.csv",
                   "eval/evaluation.json"]
        for rel in tracked:
            a = (first / rel).read_bytes()
            b = (second / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"


# -------------------------------------------------- 7: overlap analysis

def test_criterion_7_overlap_analysis(tmp_path):
    with criterion(7, "overlap analysis"):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"data": {"synth": {"n_sites": 105, "n_regions": 8, "days": 1,
                                "seed": 3}}}))
        data = tmp_path / "data"
        graph = tmp_path / "graph.json"
        analysis = tmp_path / "analysis.json"
        assert cli_main(["synth", "--config", str(cfg_path),
                         "--out", str(data)]) == 0
        assert cli_main(["build-graph", "--sites", str(data / "sites.csv"),
                         "--strategy", "regional", "--out", str(graph)]) == 0
        assert cli_main(["analyze-graph", "--graph", str(graph),
                         "--out", str(analysis)]) == 0
        doc = json.loads(analysis.read_text())
        assert doc["nodes"] == 105
        assert len(doc["partition"]["groups"]) == 8
        assert doc["partition"]["degree_monotone"] is True
        assert doc["overlap_cost"]["regional"] < doc["overlap_cost"]["connected"]


# ---------------------------------------------- 8: comparative baseline

def test_criterion_8_comparative_baseline(tmp_path):
    with criterion(8, "comparative baseline"):
        started = time.perf_counter()
        horizons = (1, 3, 12, 36)
        sites, samples = synth_windows(
            tmp_path / "coupled", SyntheticConfig(n_sites=24, n_regions=4,
                                                  days=14, seed=21,
                                                  coupling=0.8), 6, horizons)
        train_s, test_s, _ = split_by_weeks(samples, ["2024-W01"],
                                            ["2024-W02"])
        graph = build_connected(sites, HaversineProvider())
        regional = decompose_regional(graph)

        means = {}
        for arch, connectivity, part in (("RegTGCN", "regional", regional),
                                         ("TGCN", "connected", None)):
            per_h = {h: [] for h in horizons}
            for seed in (0, 1, 2):
                spec = ModelSpec(arch, 32, 6, horizons, connectivity,
                                 seed=seed)
                model = build_model(spec, graph, part)
                bundle, _ = train(
                    model, train_s,
                    TrainConfig(epochs=8, horizons=horizons,
                                learning_rate=1e-3, weight_decay=0.0,
                                seed=seed, patience=8),
                    tmp_path / f"{arch}_{seed}")
                report = evaluate_model(model, test_s, bundle.scaling_lo,
                                        bundle.scaling_hi)
                for h in horizons:
                    per_h[h].append(report.metrics[h].rmse)
            means[arch] = {h: float(np.mean(per_h[h])) for h in horizons}

        elapsed = time.perf_counter() - started
        for arch in ("RegTGCN", "TGCN"):
            cells = "  ".join(f"{h * 10}min={means[arch][h]:.4f}"
                              for h in horizons[1:])
            note(f"  criterion 8: {arch} mean test RMSE {cells}")
        assert means["RegTGCN"][1] <= means["TGCN"][1], (
            f"10-min RMSE: RegTGCN {means['RegTGCN'][1]:.4f} vs "
            f"TGCN {means['TGCN'][1]:.4f}")
        assert elapsed < 7200.0, f"comparative run took {elapsed:.0f}s"


# ---------------------------------------------- 9: metric definitions

def _percentile_95(values):
    ordered = sorted(values)
    pos = 0.95 * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


def test_criterion_9_metric_definitions():
    with criterion(9, "metric definitions"):
        rng = np.random.default_rng(909)
        tol = 1e-10
        for _ in range(50):
            n = int(rng.integers(2, 8))
            steps = int(rng.integers(25, 60))
            truth = rng.uniform(0.05, 1.3, (n, steps))
            pred = truth + rng.normal(0.0, 0.1, (n, steps))

            mine_q = q95_table(truth)
            want_q = [_percentile_95(list(row)) for row in truth]
            for got, want in zip(mine_q, want_q):
                assert abs(got - want) <= tol

            got = compute_metrics(pred, truth, mine_q)
            mape = mape_lit = 0.0
            for i in range(n):
                for j in range(steps):
                    err = pred[i][j] - truth[i][j]
                    mape += abs(err) / want_q[i]
                    mape_lit += err * err / want_q[i]
            assert abs(got.mape - 100.0 * mape / (n * steps)) <= tol
            assert abs(got.mape_literal - 100.0 * mape_lit / (n * steps)) <= tol
