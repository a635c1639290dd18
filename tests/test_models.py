"""Unit tests for layers, architectures, and checkpoints."""

import json
import struct

import numpy as np
import pytest

from regraph.errors import ConfigError, DataError, ShapeError
from regraph.graph import SiteMeta, build_connected, decompose_random, decompose_regional
from regraph.models import (
    AttentionAggregator,
    GcnGruCell,
    GcnLayer,
    ModelSpec,
    StructuralConv,
    attention_aggregate,
    build_model,
    gcn_forward,
    gru_step,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    structural_conv,
)
from regraph.models.architectures import CstGcn, GraphContext, TGcn
from regraph.numerics import backward, constant, parameter, sum_all

RNG = np.random.default_rng


def site(site_id, region="WI", lat=43.0, lon=-89.0):
    return SiteMeta(site_id=site_id, region=region, latitude=lat, longitude=lon,
                    travel_time=10.0, owner=1, amenity_count=3, capacity=50)


class FakeProvider:
    def __init__(self, table):
        self.table = {frozenset(k): v for k, v in table.items()}

    def miles(self, a, b):
        return self.table.get(frozenset((a.site_id, b.site_id)), 999.0)


def two_region_graph():
    """4 nodes, 2 regions, intra-region edges only."""
    sites = [site("w1", "WI"), site("w2", "WI"), site("i1", "IA"), site("i2", "IA")]
    provider = FakeProvider({("w1", "w2"): 10.0, ("i1", "i2"): 15.0})
    return build_connected(sites, provider)


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


# ------------------------------------------------------------- gcn_forward

def test_gcn_identity_case():
    layer = GcnLayer(RNG(0), 3, 3, activation="identity")
    layer.w.values = np.eye(3)
    layer.b.values = np.zeros((1, 3))
    h = RNG(1).normal(size=(4, 3))
    out = gcn_forward(layer, constant(np.eye(4)), constant(h))
    np.testing.assert_allclose(out.values, h, rtol=1e-15)


def test_gcn_two_node_complete_graph():
    layer = GcnLayer(RNG(0), 2, 2, activation="identity")
    layer.w.values = np.eye(2)
    layer.b.values = np.zeros((1, 2))
    n = constant(np.full((2, 2), 0.5))
    h = constant(np.eye(2))
    out = gcn_forward(layer, n, h)
    np.testing.assert_allclose(out.values, [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)


def test_gcn_matches_per_node_loop_oracle():
    rng = RNG(7)
    for _ in range(20):
        n_nodes, f_in, f_out = 6, 5, 4
        norm = rng.normal(size=(n_nodes, n_nodes))
        h = rng.normal(size=(n_nodes, f_in))
        layer = GcnLayer(rng, f_in, f_out, activation="sigmoid")
        out = gcn_forward(layer, constant(norm), constant(h))

        expected = np.zeros((n_nodes, f_out))
        for i in range(n_nodes):
            acc = np.zeros(f_out)
            for j in range(n_nodes):
                acc += norm[i, j] * (h[j] @ layer.w.values)
            expected[i] = sigmoid_np(acc + layer.b.values[0])
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_gcn_shape_error():
    layer = GcnLayer(RNG(0), 3, 2)
    with pytest.raises(ShapeError):
        gcn_forward(layer, constant(np.eye(4)), constant(np.zeros((4, 5))))


# --------------------------------------------------------- structural_conv

def test_structural_conv_no_neighbors():
    layer = StructuralConv(RNG(3), 4, 3)
    eta = RNG(4).normal(size=(5, 4))
    out = structural_conv(layer, constant(np.zeros((5, 5))), constant(eta))
    np.testing.assert_allclose(out.values, sigmoid_np(eta @ layer.w.values), rtol=1e-15)


def test_structural_conv_zero_weights():
    layer = StructuralConv(RNG(3), 4, 3)
    layer.w.values = np.zeros((4, 3))
    adj = np.ones((5, 5)) - np.eye(5)
    out = structural_conv(layer, constant(adj), constant(RNG(4).normal(size=(5, 4))))
    np.testing.assert_allclose(out.values, np.full((5, 3), 0.5), rtol=1e-15)


def test_structural_conv_path_graph_oracle():
    # path 0-1-2-3
    adj = np.zeros((4, 4))
    for a, b in ((0, 1), (1, 2), (2, 3)):
        adj[a, b] = adj[b, a] = 1.0
    rng = RNG(11)
    layer = StructuralConv(rng, 3, 2)
    eta = rng.normal(size=(4, 3))
    out = structural_conv(layer, constant(adj), constant(eta))

    expected = np.zeros((4, 2))
    for i in range(4):
        total = eta[i].copy()
        for j in range(4):
            if adj[i, j] > 0:
                total += eta[j]
        expected[i] = sigmoid_np(total @ layer.w.values)
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


# ---------------------------------------------------------------- gru_step

def test_gru_zero_weights_halves_hidden():
    cell = GcnGruCell(RNG(0), 3, 4)
    for w in (cell.w_z, cell.w_r, cell.w_c):
        w.values = np.zeros_like(w.values)
    h_prev = RNG(1).normal(size=(5, 4))
    out = gru_step(cell, constant(RNG(2).normal(size=(5, 3))), constant(h_prev))
    np.testing.assert_allclose(out.values, 0.5 * h_prev, rtol=1e-15)


def test_gru_saturated_update_gate():
    cell = GcnGruCell(RNG(0), 3, 4)
    cell.w_z.values = np.full_like(cell.w_z.values, 50.0)
    x = constant(np.abs(RNG(2).normal(size=(2, 3))) + 0.5)
    h_prev = constant(np.zeros((2, 4)))
    out = gru_step(cell, x, h_prev)
    candidate = np.tanh(
        np.concatenate([x.values, np.zeros((2, 4))], axis=1) @ cell.w_c.values)
    np.testing.assert_allclose(out.values, candidate, atol=1e-9)


def test_gru_matches_scalar_reimplementation():
    rng = RNG(9)
    for _ in range(10):
        cell = GcnGruCell(rng, 3, 2)
        x = rng.normal(size=(4, 3))
        h_prev = rng.normal(size=(4, 2))
        out = gru_step(cell, constant(x), constant(h_prev))

        wz, wr, wc = cell.w_z.values, cell.w_r.values, cell.w_c.values
        expected = np.zeros((4, 2))
        for i in range(4):
            row = np.concatenate([x[i], h_prev[i]])
            z = np.array([sigmoid_np(sum(row[a] * wz[a, j] for a in range(5)))
                          for j in range(2)])
            r = np.array([sigmoid_np(sum(row[a] * wr[a, j] for a in range(5)))
                          for j in range(2)])
            gated = np.concatenate([x[i], h_prev[i] * r])
            cand = np.array([np.tanh(sum(gated[a] * wc[a, j] for a in range(5)))
                             for j in range(2)])
            expected[i] = (1 - z) * h_prev[i] + z * cand
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_gru_hidden_stays_bounded():
    rng = RNG(15)
    cell = GcnGruCell(rng, 3, 4)
    h = constant(np.zeros((6, 4)))
    for _ in range(30):
        h = gru_step(cell, constant(rng.normal(size=(6, 3)) * 3), h)
        assert np.max(np.abs(h.values)) <= 1.0 + 1e-12


def test_gru_shape_error():
    cell = GcnGruCell(RNG(0), 3, 4)
    with pytest.raises(ShapeError):
        gru_step(cell, constant(np.zeros((5, 2))), constant(np.zeros((5, 4))))


# --------------------------------------------------------------- attention

def test_attention_single_lag_identity():
    agg = AttentionAggregator(RNG(0), 1)
    state = RNG(1).normal(size=(4, 3))
    out = attention_aggregate(agg, [constant(state)])
    np.testing.assert_allclose(out.values, state, rtol=1e-15)


def test_attention_equal_scores_is_mean():
    agg = AttentionAggregator(RNG(0), 3)
    agg.scores.values = np.zeros(3)
    states = [RNG(k).normal(size=(4, 2)) for k in range(3)]
    out = attention_aggregate(agg, [constant(s) for s in states])
    np.testing.assert_allclose(out.values, np.mean(states, axis=0), atol=1e-14)


def test_attention_matches_explicit_weighted_sum():
    rng = RNG(21)
    agg = AttentionAggregator(rng, 4)
    states = [rng.normal(size=(5, 3)) for _ in range(4)]
    out = attention_aggregate(agg, [constant(s) for s in states])

    e = np.exp(agg.scores.values - np.max(agg.scores.values))
    w = e / np.sum(e)
    expected = sum(w[k] * states[k] for k in range(4))
    np.testing.assert_allclose(out.values, expected, atol=1e-12)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)


def test_attention_wrong_state_count():
    agg = AttentionAggregator(RNG(0), 2)
    with pytest.raises(ShapeError):
        attention_aggregate(agg, [constant(np.zeros((2, 2)))])


# --------------------------------------------------------------- ModelSpec

def test_model_spec_connectivity_consistency():
    ModelSpec("RegTGCN", 8, 3, (1, 3), "regional")
    ModelSpec("RanTGCN", 8, 3, (1,), "random", region_count=2)
    ModelSpec("TGCN", 8, 3, (1,), "connected")
    with pytest.raises(ConfigError):
        ModelSpec("RegTGCN", 8, 3, (1,), "connected")
    with pytest.raises(ConfigError):
        ModelSpec("TGCN", 8, 3, (1,), "regional")
    with pytest.raises(ConfigError):
        ModelSpec("RanTGCN", 8, 3, (1,), "random")  # missing region_count
    with pytest.raises(ConfigError):
        ModelSpec("TGCN", 8, 3, (1,), "connected", region_count=4)
    with pytest.raises(ConfigError):
        ModelSpec("TGCN", 8, 3, (3, 1), "connected")
    with pytest.raises(ConfigError):
        ModelSpec("Transformer", 8, 3, (1,), "connected")


def window(k, n, seed=0):
    return RNG(seed).uniform(0.0, 1.0, size=(k, n, 8))


def test_build_model_partition_rules():
    g = two_region_graph()
    part = decompose_regional(g)
    spec = ModelSpec("RegTGCN", 6, 3, (1, 3), "regional")
    model = build_model(spec, g, part)
    assert model.predict(window(3, 4)).shape == (4, 2)
    with pytest.raises(ConfigError):
        build_model(spec, g)  # partition required
    with pytest.raises(ConfigError):
        build_model(ModelSpec("TGCN", 6, 3, (1,), "connected"), g, part)
    rand = decompose_random(g, r=2, seed=0)
    with pytest.raises(ConfigError):
        build_model(spec, g, rand)  # strategy mismatch


# ------------------------------------------------------------ architectures

@pytest.mark.parametrize("arch,conn", [
    ("StackedGRU", "connected"), ("StackedGCN", "connected"),
    ("TGCN", "connected"), ("CSTGCN", "connected"),
    ("RanTGCN", "random"), ("RegTGCN", "regional"),
])
def test_every_architecture_runs_and_is_deterministic(arch, conn):
    g = two_region_graph()
    partition = None
    region_count = None
    if conn == "regional":
        partition = decompose_regional(g)
    elif conn == "random":
        partition = decompose_random(g, r=2, seed=1)
        region_count = 2
    spec = ModelSpec(arch, 6, 3, (1, 3), conn, region_count=region_count, seed=5)
    m1 = build_model(spec, g, partition)
    m2 = build_model(spec, g, partition)
    w = window(3, 4)
    p1, p2 = m1.predict(w), m2.predict(w)
    assert p1.shape == (4, 2)
    assert p1.tobytes() == p2.tobytes()
    for (n1, a), (n2, b) in zip(m1.named_params().items(), m2.named_params().items()):
        assert n1 == n2
        assert a.values.tobytes() == b.values.tobytes()


def test_stacked_gru_ignores_adjacency():
    sites = [site("w1"), site("w2"), site("i1", "IA"), site("i2", "IA")]
    dense = build_connected(sites, FakeProvider({("w1", "w2"): 5.0, ("w1", "i1"): 5.0,
                                                 ("i1", "i2"): 5.0}))
    sparse = build_connected(sites, FakeProvider({}))
    spec = ModelSpec("StackedGRU", 6, 3, (1,), "connected", seed=2)
    w = window(3, 4)
    out_dense = build_model(spec, dense).predict(w)
    out_sparse = build_model(spec, sparse).predict(w)
    assert out_dense.tobytes() == out_sparse.tobytes()


def test_gradients_reach_every_parameter():
    g = two_region_graph()
    part = decompose_regional(g)
    spec = ModelSpec("RegTGCN", 5, 3, (1, 2), "regional", seed=3)
    model = build_model(spec, g, part)
    out = model.forward(window(3, 4))
    backward(sum_all(out))
    for name, p in model.named_params().items():
        assert p.grad is not None, f"no gradient for {name}"
        assert p.grad.shape == p.values.shape


def test_cst_depth_and_single_layer_equivalence():
    g = two_region_graph()
    spec_t = ModelSpec("TGCN", 6, 3, (1,), "connected", seed=8)
    spec_c = ModelSpec("CSTGCN", 6, 3, (1,), "connected", seed=8)
    ctx = GraphContext(g)
    full = CstGcn(spec_c, ctx)
    assert sum(1 for name in full.named_params() if name.startswith("conv")) == 5

    tied = CstGcn(spec_t, ctx, conv_depth=1)
    ref = TGcn(spec_t, ctx)
    state = {name: p.values for name, p in ref.named_params().items()}
    tied.load_state(state)
    w = window(3, 4)
    np.testing.assert_array_equal(tied.predict(w), ref.predict(w))


def test_regional_embedding_single_region_equals_full_graph():
    sites = [site(f"s{i}") for i in range(4)]
    provider = FakeProvider({(f"s{i}", f"s{j}"): 10.0 for i in range(4) for j in range(4)})
    g = build_connected(sites, provider)
    part = decompose_regional(g)
    assert len(part.region_order) == 1
    spec = ModelSpec("RegTGCN", 6, 3, (1,), "regional", seed=4)
    model = build_model(spec, g, part)

    x = RNG(2).normal(size=(4, 8))
    gamma = model.regional_embedding(constant(x)).values
    layer = model.region_layers[part.region_order[0]]
    manual = sigmoid_np(g.normalized @ x @ layer.w.values + layer.b.values)
    manual = manual @ model.mixer_w.values + model.mixer_b.values
    np.testing.assert_allclose(gamma, manual, atol=1e-12)


def test_regional_embedding_cross_region_isolation():
    sites = [site("a1", "A"), site("a2", "A"), site("b1", "B"),
             site("b2", "B"), site("c1", "C")]
    provider = FakeProvider({("a1", "a2"): 5.0, ("b1", "b2"): 5.0})
    g = build_connected(sites, provider)
    part = decompose_regional(g)
    spec = ModelSpec("RegTGCN", 6, 3, (1,), "regional", seed=6)
    model = build_model(spec, g, part)

    x = RNG(3).normal(size=(5, 8))
    base = model.regional_embedding(constant(x)).values
    perturbed = x.copy()
    perturbed[2:4] += 10.0  # region B rows
    moved = model.regional_embedding(constant(perturbed)).values
    np.testing.assert_array_equal(base[:2], moved[:2])  # region A untouched
    np.testing.assert_array_equal(base[4:], moved[4:])  # region C untouched
    assert not np.allclose(base[2:4], moved[2:4])


def test_zero_mixer_zeroes_gamma():
    g = two_region_graph()
    part = decompose_regional(g)
    model = build_model(ModelSpec("RegTGCN", 6, 3, (1,), "regional"), g, part)
    model.mixer_w.values = np.zeros_like(model.mixer_w.values)
    model.mixer_b.values = np.zeros_like(model.mixer_b.values)
    gamma = model.regional_embedding(constant(RNG(1).normal(size=(4, 8)))).values
    np.testing.assert_array_equal(gamma, np.zeros((4, 6)))


def test_permutation_equivariance_tgcn():
    rng = RNG(31)
    sites = [site(f"s{i}", lat=43.0 + rng.uniform(-0.3, 0.3),
                  lon=-89.0 + rng.uniform(-0.3, 0.3)) for i in range(6)]
    from regraph.graph import HaversineProvider
    g = build_connected(sites, HaversineProvider())
    spec = ModelSpec("TGCN", 6, 3, (1, 3), "connected", seed=9)
    w = window(3, 6)
    base = build_model(spec, g).predict(w)

    perm = rng.permutation(6)
    g_perm = build_connected([sites[p] for p in perm], HaversineProvider())
    out_perm = build_model(spec, g_perm).predict(w[:, perm, :])
    np.testing.assert_allclose(out_perm, base[perm], atol=1e-12)


def test_window_shape_validation():
    g = two_region_graph()
    model = build_model(ModelSpec("TGCN", 6, 3, (1,), "connected"), g)
    with pytest.raises(ShapeError):
        model.predict(window(4, 4))
    with pytest.raises(ShapeError):
        model.predict(window(3, 5))


# -------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    g = two_region_graph()
    part = decompose_regional(g)
    spec = ModelSpec("RegTGCN", 6, 4, (1, 3), "regional", seed=11)
    model = build_model(spec, g, part)
    lo, hi = np.zeros(8), np.ones(8)
    hi[2] = 23.0
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, lo, hi, train_weeks=[1, 2, 3])

    bundle = load_checkpoint(path)
    assert bundle.spec == spec
    assert bundle.train_weeks == [1, 2, 3]
    np.testing.assert_array_equal(bundle.scaling_hi, hi)
    assert bundle.partition is not None
    assert bundle.partition.region_order == part.region_order

    restored = restore_model(bundle)
    w = window(4, 4, seed=13)
    np.testing.assert_array_equal(restored.predict(w), model.predict(w))


def test_checkpoint_saves_identical_bytes(tmp_path):
    g = two_region_graph()
    spec = ModelSpec("TGCN", 6, 3, (1,), "connected", seed=1)
    model = build_model(spec, g)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model, np.zeros(8), np.ones(8), [1])
    save_checkpoint(p2, model, np.zeros(8), np.ones(8), [1])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_rejects_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.ckpt"
    path.write_bytes(b"RGCKPT01" + struct.pack("<Q", 2) + b"[]")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    g = two_region_graph()
    model = build_model(ModelSpec("TGCN", 6, 3, (1,), "connected"), g)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, np.zeros(8), np.ones(8), [1])
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_load_state_mismatch(tmp_path):
    g = two_region_graph()
    model = build_model(ModelSpec("TGCN", 6, 3, (1,), "connected"), g)
    with pytest.raises(ConfigError):
        model.load_state({"nope": np.zeros(3)})


def test_random_partition_with_twelve_groups_reloads_identically(tmp_path):
    # group_10 sorts before group_2: building and reading back must agree.
    sites = [site(f"s{i:02d}", lat=43.0 + 0.05 * i) for i in range(24)]
    g = build_connected(sites)
    part = decompose_random(g, r=12, seed=5)
    spec = ModelSpec("RanTGCN", 4, 3, (1,), "random", region_count=12, seed=2)
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(first, build_model(spec, g, part), np.zeros(8), np.ones(8), [1])
    bundle = load_checkpoint(first)
    assert bundle.partition.region_order == part.region_order
    save_checkpoint(second, restore_model(bundle), np.zeros(8), np.ones(8), [1])
    assert second.read_bytes() == first.read_bytes()


def _rewrite_header(path, edit):
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + length])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length:])


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("hyperparams"),
    lambda h: h["graph"]["sites"][0].pop(),
    lambda h: h["partition"]["subgraph_edges"]["WI"].clear(),
    lambda h: h["partition"]["region_of"].update(ghost="WI"),
], ids=["no_hyperparams", "short_site_row", "regional_edge_dropped", "unknown_site_label"])
def test_checkpoint_malformed_header_is_data_error(tmp_path, edit):
    g = two_region_graph()
    spec = ModelSpec("RegTGCN", 6, 3, (1,), "regional", seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_model(spec, g, decompose_regional(g)),
                    np.zeros(8), np.ones(8), [1])
    _rewrite_header(path, edit)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_random_partition_round_trip(tmp_path):
    g = two_region_graph()
    part = decompose_random(g, r=2, seed=3)
    spec = ModelSpec("RanTGCN", 6, 3, (1,), "random", region_count=2, seed=2)
    model = build_model(spec, g, part)
    path = tmp_path / "ran.ckpt"
    save_checkpoint(path, model, np.zeros(8), np.ones(8), [1, 2])
    bundle = load_checkpoint(path)
    assert dict(bundle.partition.region_of) == dict(part.region_of)
    w = window(3, 4, seed=17)
    np.testing.assert_array_equal(restore_model(bundle).predict(w), model.predict(w))
