"""Unit tests for layers, architectures, and checkpoints."""

import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regraph.errors import ConfigError, DataError, ShapeError
from regraph.graph import (
    HaversineProvider,
    SiteMeta,
    build_connected,
    decompose_random,
    decompose_regional,
    degree,
    dense_operator,
    partition_from_assignment,
)
from regraph.models import (
    AttentionAggregator,
    GcnGruCell,
    GcnLayer,
    ModelSpec,
    StructuralConv,
    affine,
    attention_aggregate,
    build_model,
    gcn_forward,
    gru_step,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    structural_conv,
)
from regraph.models.architectures import (
    ARCHITECTURES,
    CONNECTIVITY_OF,
    CstGcn,
    GraphContext,
    RanTGcn,
    RegTGcn,
    StackedGcn,
    StackedGru,
    TGcn,
)
from regraph.models.checkpoint import (
    graph_from_payload,
    graph_payload,
    partition_from_payload,
    partition_payload,
)
from regraph.numerics import (
    DiffTensor,
    add,
    backward,
    constant,
    matmul,
    mul,
    parameter,
    sum_all,
)
from regraph.numerics import tensor as tensor_core

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
    layer = GcnLayer(RNG(0), 3, 3)
    layer.w.values = np.eye(3)
    layer.b.values = np.zeros((1, 3))
    h = RNG(1).normal(size=(4, 3))
    out = gcn_forward(layer, constant(np.eye(4)), constant(h))
    np.testing.assert_allclose(out.values, sigmoid_np(h), rtol=1e-15)


def test_gcn_two_node_complete_graph():
    layer = GcnLayer(RNG(0), 2, 2)
    layer.w.values = np.eye(2)
    layer.b.values = np.zeros((1, 2))
    n = constant(np.full((2, 2), 0.5))
    h = constant(np.eye(2))
    out = gcn_forward(layer, n, h)
    np.testing.assert_allclose(out.values, sigmoid_np(np.full((2, 2), 0.5)),
                               rtol=1e-15)


def test_gcn_matches_per_node_loop_oracle():
    rng = RNG(7)
    for _ in range(20):
        n_nodes, f_in, f_out = 6, 5, 4
        norm = rng.normal(size=(n_nodes, n_nodes))
        h = rng.normal(size=(n_nodes, f_in))
        layer = GcnLayer(rng, f_in, f_out)
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


def test_gru_zero_state_skips_the_hidden_half_and_keeps_values_and_grads():
    # None is the all-zero state: the three h @ W_h products, r and
    # (1 - z) * h are skipped inside the one gru_update entry either state
    # records.
    rng = RNG(21)
    cell = GcnGruCell(rng, 3, 4)
    x, k = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
    weights = (cell.w_z, cell.w_r, cell.w_c)
    results = []
    for h_prev in (None, constant(np.zeros((5, 4)))):
        before = tensor_core.tape_length()
        out = gru_step(cell, constant(x), h_prev)
        entries = tensor_core.tape_length() - before
        backward(sum_all(mul(out, constant(k))))
        # from the zero state the r gate gets the zeros the explicit state gives
        grads = [w.grad for w in weights]
        for w in weights:
            w.grad = None
        results.append((out.values, entries, grads))
    (got, got_entries, got_grads), (ref, ref_entries, ref_grads) = results
    np.testing.assert_array_equal(got, ref)
    assert got_entries == ref_entries
    for a, b in zip(got_grads, ref_grads):
        np.testing.assert_array_equal(a, b)


# StackedGRU starts each of its two cells from the zero state
@pytest.mark.parametrize("arch,zero_starts", [("TGCN", 1), ("CSTGCN", 1), ("StackedGRU", 2)])
def test_zero_start_models_equal_an_explicit_zero_state(monkeypatch, arch, zero_starts):
    from regraph.models import architectures
    g = two_region_graph()
    model = build_model(ModelSpec(arch, 6, 3, (1, 2), "connected", seed=5), g)
    w = window(3, 4, seed=6)
    got = model.predict(w)
    tensor_core.clear_tape()
    model.forward(w)
    got_entries = tensor_core.tape_length()

    def explicit(gate_x, rows, h_prev, hidden):
        """``gru_update`` with a None state passed as explicit zeros."""
        zeros = constant(np.zeros((4, 6))) if h_prev is None else h_prev
        return tensor_core.gru_update(gate_x, rows, zeros, hidden)
    monkeypatch.setattr(architectures, "gru_update", explicit)
    tensor_core.clear_tape()
    ref = model.predict(w)
    model.forward(w)
    np.testing.assert_array_equal(got, ref)
    # each GRU update is one entry, from the zero state or explicit zeros
    assert got_entries == tensor_core.tape_length()
    names = [e.grad_fn.__qualname__.split(".")[0] for e in tensor_core._TAPE]
    assert names.count("gru_update") == 3 * zero_starts


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


@pytest.mark.parametrize("arch", sorted(CONNECTIVITY_OF))
def test_every_parameter_gets_a_gradient_at_k1(arch):
    # At one lag a zero-start GRU never reads its r gate, which still gets
    # the zero gradient an explicit zero state gives it.
    g = two_region_graph()
    conn = CONNECTIVITY_OF[arch]
    part = {"regional": decompose_regional(g), "connected": None,
            "random": decompose_random(g, r=2, seed=0)}[conn]
    spec = ModelSpec(arch, 5, 1, (1, 2), conn, region_count=2 if conn == "random" else None)
    model = build_model(spec, g, part)
    backward(sum_all(model.forward(window(1, 4))))
    missing = [name for name, p in model.named_params().items() if p.grad is None]
    assert missing == []


def test_cst_depth_and_single_layer_equivalence():
    g = two_region_graph()
    spec_t = ModelSpec("TGCN", 6, 3, (1,), "connected", seed=8)
    spec_c = ModelSpec("CSTGCN", 6, 3, (1,), "connected", seed=8)
    ctx = GraphContext(g, "binary")
    full = CstGcn(spec_c, ctx)
    assert sum(1 for name in full.named_params() if name.startswith("conv")) == 5

    class OneDeepCstGcn(CstGcn):
        conv_depth = 1

    tied = OneDeepCstGcn(spec_t, ctx)
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
    manual = sigmoid_np(dense_operator(g, "normalized") @ x @ layer.w.values + layer.b.values)
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


INTERLEAVED = {"s0": "A", "s1": "B", "s2": "A", "s3": "C", "s4": "B"}


def interleaved_model(arch):
    """RegTGCN or RanTGCN whose three groups interleave in node order."""
    sites = [site(sid, label) for sid, label in INTERLEAVED.items()]
    provider = FakeProvider({("s0", "s2"): 10.0, ("s1", "s4"): 12.0, ("s0", "s1"): 20.0})
    g = build_connected(sites, provider)
    if arch == "RegTGCN":
        part, spec = decompose_regional(g), ModelSpec(arch, 6, 3, (1, 3), "regional", seed=2)
    else:
        part = partition_from_assignment(g, INTERLEAVED, "random", provider)
        spec = ModelSpec(arch, 6, 3, (1, 3), "random", region_count=3, seed=2)
    return build_model(spec, g, part)


def dense_regional_embedding(model, x):
    """The gamma path of m stacked steps through dense 0/1 gather and scatter
    matrices, each region's rows of every step in one block-diagonal conv."""
    ctx = model.ctx
    m = x.shape[0] // ctx.n
    total = None
    for label in ctx.region_order:
        idx = ctx.partition.node_indices[label]
        rows = (np.arange(m)[:, None] * ctx.n + idx).reshape(-1)
        scatter = np.zeros((m * ctx.n, len(rows)))
        scatter[rows, np.arange(len(rows))] = 1.0
        local = matmul(constant(scatter.T.copy()), x)
        blocks = constant(np.kron(np.eye(m), ctx.sub_normalized[label].values))
        emb = gcn_forward(model.region_layers[label], blocks, local)
        placed = matmul(constant(scatter), emb)
        total = placed if total is None else add(total, placed)
    return affine(total, model.mixer_w, model.mixer_b)


def _grads_after(model, run):
    for p in model.params():
        p.grad = None
    out = run()
    backward(sum_all(mul(out, out)))
    grads = {name: p.grad for name, p in model.named_params().items() if p.grad is not None}
    for p in model.params():
        p.grad = None
    return out.values, grads


@pytest.mark.parametrize("arch", ["RegTGCN", "RanTGCN"])
def test_regional_embedding_is_bit_identical_to_dense_selection(arch):
    model = interleaved_model(arch)
    x_vals = RNG(12).normal(size=(3 * 5, 8))

    x = parameter(x_vals)
    got, got_grads = _grads_after(model, lambda: model.regional_embedding(x))
    got_x = x.grad
    x = parameter(x_vals)
    ref, ref_grads = _grads_after(model, lambda: dense_regional_embedding(model, x))
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(got_x, x.grad)
    assert got_grads.keys() == ref_grads.keys()
    for name, grad in ref_grads.items():
        np.testing.assert_array_equal(got_grads[name], grad, err_msg=name)

    w = window(3, 5, seed=4)
    got, got_grads = _grads_after(model, lambda: model.forward(w))
    model.regional_embedding = lambda frame: dense_regional_embedding(model, frame)
    ref, ref_grads = _grads_after(model, lambda: model.forward(w))
    np.testing.assert_array_equal(got, ref)
    assert got_grads.keys() == ref_grads.keys() == model.named_params().keys()
    for name, grad in ref_grads.items():
        np.testing.assert_array_equal(got_grads[name], grad, err_msg=name)


@pytest.mark.parametrize("arch", ["RegTGCN", "RanTGCN"])
def test_regional_embedding_works_on_region_sized_rows(arch):
    model = interleaved_model(arch)
    n = model.ctx.n
    assert len(model.ctx.region_order) > 1
    for steps in (1, 3):
        before = tensor_core.tape_length()
        model.regional_embedding(constant(RNG(5).normal(size=(steps * n, 8))))
        entries = tensor_core._TAPE[before:]
        # the per-region convs of every step happen inside one op, then the
        # mixer's affine
        assert [e.grad_fn.__qualname__.split(".")[0] for e in entries] == \
            ["segment_gcn", "matmul", "add_row"]
        assert all(e.output.shape[0] == steps * n for e in entries)


def stepwise_forward(model, w):
    """The forecast of one window taken one encoded step at a time."""
    weights = model.call_weights()
    state = None
    for step in w:
        state = model.advance(weights, state, model.encode(weights, constant(step)),
                              slice(None))
    return model.readout(weights, state)


@pytest.mark.parametrize("arch", ["StackedGRU", "TGCN", "CSTGCN", "RanTGCN", "RegTGCN"])
def test_stacked_forward_equals_one_step_at_a_time(arch):
    if arch in ("RanTGCN", "RegTGCN"):
        model = interleaved_model(arch)
    else:
        model = build_model(ModelSpec(arch, 6, 3, (1, 2), "connected", seed=5),
                            two_region_graph())
    w = window(3, model.ctx.n, seed=8)
    before = tensor_core.tape_length()
    got, got_grads = _grads_after(model, lambda: model.forward(w))
    assert tensor_core.tape_length() == before
    ref, ref_grads = _grads_after(model, lambda: stepwise_forward(model, w))
    np.testing.assert_array_equal(got, ref)
    assert got_grads.keys() == ref_grads.keys() == model.named_params().keys()
    for name, grad in ref_grads.items():
        scale = np.max(np.abs(grad))
        assert np.max(np.abs(got_grads[name] - grad)) <= 1e-13 * scale, name


def test_stacked_forward_tapes_one_entry_per_layer_and_lag():
    model = interleaved_model("RegTGCN")
    tensor_core.clear_tape()
    model.forward(window(3, model.ctx.n))
    names = [e.grad_fn.__qualname__.split(".")[0] for e in tensor_core._TAPE]
    tensor_core.clear_tape()
    assert names.count("segment_gcn") == 1
    assert names.count("gru_update") == 3
    assert names.count("matmul") == 1 + 1 + 3 + 2  # structural, mixer, gates, decoder
    assert names.count("sigmoid") == 1


@pytest.mark.parametrize("arch,entries", [
    ("StackedGRU", 50), ("StackedGCN", 12), ("TGCN", 41),
    ("CSTGCN", 57), ("RanTGCN", 46), ("RegTGCN", 46),
])
def test_tape_entries_per_window_at_k6(arch, entries):
    g = two_region_graph()
    if arch == "RegTGCN":
        part, spec = decompose_regional(g), ModelSpec(arch, 6, 6, (1, 2), "regional")
    elif arch == "RanTGCN":
        part = decompose_random(g, r=2, seed=0)
        spec = ModelSpec(arch, 6, 6, (1, 2), "random", region_count=2)
    else:
        part, spec = None, ModelSpec(arch, 6, 6, (1, 2), "connected")
    model = build_model(spec, g, part)
    tensor_core.clear_tape()
    model.forward(window(6, 4))
    assert tensor_core.tape_length() == entries
    tensor_core.clear_tape()


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


# --------------------------------------------------- operators from the edges
# The dense construction a graph used to carry for every model: the kernel
# adjacency of its candidate pairs, then the binary neighbor matrix and the
# normalized operator derived from it.

def dense_kernel_adjacency(n, pairs, kind, sigma):
    adjacency = np.zeros((n, n))
    for i, j, miles in pairs:
        if kind == "gaussian":
            w = float(np.exp(-((miles / sigma) ** 2)))
        else:
            w = 1.0 if kind == "binary" else miles
        if w == 0.0:
            continue
        adjacency[i, j] = w
        adjacency[j, i] = w
    return adjacency


def dense_binary(adjacency):
    binary = (adjacency > 0).astype(np.float64)
    np.fill_diagonal(binary, 0.0)
    return binary


def dense_normalized(adjacency):
    a_hat = adjacency + np.eye(adjacency.shape[0])
    d = np.sum(a_hat, axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return a_hat * np.outer(inv_sqrt, inv_sqrt)


def operator_sites(n):
    """n sites in two regions; past 2, the last one is isolated and the
    second to last sits on the first (0 miles apart)."""
    rng = RNG(17)
    sites = [site(f"s{i}", "AB"[i % 2], lat=43.0 + rng.uniform(-0.4, 0.4),
                  lon=-89.0 + rng.uniform(-0.4, 0.4)) for i in range(n)]
    if n > 2:
        first = sites[0]
        sites[-2] = site("twin", "B", lat=first.latitude, lon=first.longitude)
        sites[-1] = site("far", "A", lat=47.5, lon=-96.0)
    return sites


def reloaded(graph, partition):
    """The graph and partition as a graph file gives them back."""
    doc = json.loads(json.dumps({"graph": graph_payload(graph),
                                 "partition": partition_payload(partition)}))
    graph = graph_from_payload(doc["graph"])
    return graph, partition_from_payload(graph, doc["partition"])


def check_degrees(g, adjacency):
    rows = np.count_nonzero(adjacency > 0, axis=1) - (np.diagonal(adjacency) > 0)
    assert [degree(g, i) for i in range(g.n)] == rows.tolist()


# The full-graph operator each model's context holds: the T-GCN models with one
# structural conv of the model input hold neighbor lists; CSTGCN, whose deeper
# convs multiply hidden-wide features, and StackedGCN hold a dense matrix.
OPERATOR_OF = {StackedGru: None, StackedGcn: "normalized", TGcn: "neighbors",
               CstGcn: "binary", RanTGcn: "neighbors", RegTGcn: "neighbors"}


def expected_operators(adjacency):
    """Per operator kind, what the dense construction says a context holds."""
    binary = dense_binary(adjacency)
    lists = (np.concatenate([[0], np.cumsum(np.count_nonzero(binary, axis=1))]),
             np.nonzero(binary)[1])
    return {None: None, "binary": binary, "normalized": dense_normalized(adjacency),
            "neighbors": lists}


def check_operator(held, expected):
    if expected is None:
        assert held is None
    elif isinstance(expected, tuple):  # neighbor lists: (starts, neighbors), read-only
        assert isinstance(held, tuple) and len(held) == 2
        for got, want in zip(held, expected):
            assert got.dtype == np.int64 and not got.flags.writeable
            np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_array_equal(held.values, expected)


@pytest.mark.parametrize("n", [1, 18])
@pytest.mark.parametrize("kernel", ["gaussian", "binary", "raw"])
def test_graph_context_operators_equal_the_dense_construction(kernel, n):
    sites, h = operator_sites(n), HaversineProvider()
    pairs = [(i, j, h.miles(sites[i], sites[j])) for i in range(n) for j in range(i + 1, n)]
    pairs = [p for p in pairs if p[2] <= 40.0]
    g = build_connected(sites, h, adjacency_weights=kernel)
    adjacency = dense_kernel_adjacency(n, pairs, kernel, g.sigma_miles)
    if n > 2:
        assert not adjacency[-1].any()  # the isolated site
        assert (0, n - 2, 0.0) in pairs  # the twins, an edge unless their weight is 0
        assert ((0, n - 2, 0.0) in g.edges) == (kernel != "raw")
    check_degrees(g, adjacency)
    expected = expected_operators(adjacency)
    for cls, kind in OPERATOR_OF.items():
        assert cls.operator_kind == kind
        check_operator(GraphContext(g, kind).operator, expected[kind])
    with pytest.raises(ConfigError):
        GraphContext(g, "kernel")

    for part in (decompose_regional(g), decompose_random(g, r=min(n, 3), seed=5)):
        g2, part2 = reloaded(g, part)
        assert g2.edges == g.edges
        np.testing.assert_array_equal(g2.degrees, g.degrees)
        for kind in ("binary", "neighbors"):
            ctx = GraphContext(g2, kind, part2)
            check_operator(ctx.operator, expected[kind])
        for label in part2.region_order:
            idx = part2.node_indices[label].tolist()
            local = {p: k for k, p in enumerate(idx)}
            if part.strategy == "regional":
                sub_pairs = [(local[i], local[j], m) for i, j, m in pairs
                             if i in local and j in local]
            else:
                sub_pairs = [(a, b, h.miles(sites[idx[a]], sites[idx[b]]))
                             for a in range(len(idx)) for b in range(a + 1, len(idx))]
            sub_adjacency = dense_kernel_adjacency(len(idx), sub_pairs, kernel, g.sigma_miles)
            check_degrees(part2.subgraphs[label], sub_adjacency)
            np.testing.assert_array_equal(ctx.sub_normalized[label].values,
                                          dense_normalized(sub_adjacency))


def state_sites(n, regions):
    """n sites in regions laid out along a diagonal, as the synthetic data has them."""
    rng = RNG(3)
    return [site(f"s{i:04d}", f"r{i % regions:02d}",
                 lat=38.0 + (i % regions) * 0.45 + rng.uniform(-0.15, 0.15),
                 lon=-96.0 + (i % regions) * 0.55 + rng.uniform(-0.15, 0.15))
            for i in range(n)]


def test_graphs_rebuild_without_an_n_by_n_array():
    n = 800
    g = build_connected(state_sites(n, 64), HaversineProvider())
    doc = json.loads(json.dumps({"graph": graph_payload(g),
                                 "partition": partition_payload(decompose_regional(g))}))
    tracemalloc.start()
    try:
        g2 = graph_from_payload(doc["graph"])
        part = partition_from_payload(g2, doc["partition"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g2.edges == g.edges and len(part.region_order) == 64
    assert peak < n * n * 8, f"rebuilding peaked at {peak} bytes"


def held_arrays(value):
    """Every array reachable from ``value`` through tensors, tuples, lists and dicts."""
    if isinstance(value, DiffTensor):
        value = value.values
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in held_arrays(v)]
    return []


def test_only_dense_operator_models_hold_an_n_by_n_array():
    n = 1000
    g = build_connected(state_sites(n, 80), HaversineProvider())
    parts = {"connected": None, "regional": decompose_regional(g),
             "random": decompose_random(g, r=80, seed=2)}
    tracemalloc.start()
    try:
        GraphContext(g, RegTGcn.operator_kind, parts["regional"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, f"a 1k-site RegTGCN context peaked at {peak} bytes"

    for arch in ARCHITECTURES:
        conn = CONNECTIVITY_OF[arch]
        spec = ModelSpec(arch, 4, 2, (1,), conn, region_count=80 if conn == "random" else None)
        ctx = build_model(spec, g, parts[conn]).ctx
        held = held_arrays([*vars(ctx).values(), *vars(ctx.graph).values()])
        big = sum(a.size >= n * n for a in held)
        assert big == (1 if arch in ("StackedGCN", "CSTGCN") else 0), arch


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


def test_failed_checkpoint_save_keeps_the_previous_file(tmp_path):
    g = two_region_graph()
    model = build_model(ModelSpec("TGCN", 6, 3, (1,), "connected", seed=1), g)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, np.zeros(8), np.ones(8), [1])
    before = path.read_bytes()
    # the last weight cannot be written as float64: the save fails after
    # the header and the earlier weights have gone out
    last = model.params()[-1]
    last.values = np.full(last.values.shape, "x", dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, model, np.zeros(8), np.ones(8), [1])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


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


def test_checkpoint_rejects_header_nested_too_deep_to_parse(tmp_path):
    path = tmp_path / "deep.ckpt"
    blob = b"[" * 100_000 + b"]" * 100_000
    path.write_bytes(b"RGCKPT01" + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(DataError, match="corrupt checkpoint header"):
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
    lambda h: h["graph"].update(sigma_miles=0.0),
    lambda h: h["graph"].update(threshold_miles="x"),
    lambda h: h["graph"]["sites"][0].__setitem__(5, True),
    lambda h: h["graph"]["sites"][0].__setitem__(7, 1e308),
    lambda h: h["weights"][0].update(shape=[1e308, 1e308]),
    lambda h: h["weights"][0].update(shape=[True, 6]),
    lambda h: h["weights"][0].update(shape=[-6, -8]),
], ids=["no_hyperparams", "short_site_row", "regional_edge_dropped", "unknown_site_label",
        "zero_sigma", "string_threshold", "bool_owner", "float_capacity",
        "overflowing_shape", "bool_shape", "negative_shape"])
def test_checkpoint_malformed_header_is_data_error(tmp_path, edit):
    g = two_region_graph()
    spec = ModelSpec("RegTGCN", 6, 3, (1,), "regional", seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_model(spec, g, decompose_regional(g)),
                    np.zeros(8), np.ones(8), [1])
    _rewrite_header(path, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a DataError, with no warning on the way
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


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    g = two_region_graph()
    spec = ModelSpec("RegTGCN", 2, 3, (1,), "regional", seed=1)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, build_model(spec, g, decompose_regional(g)),
                    np.zeros(8), np.ones(8), [1])
    return path


# Bytes written over a span: arbitrary, or text that keeps a JSON header parseable.
PATCHES = st.one_of(st.binary(min_size=1, max_size=24),
                    st.text('0123456789-+.eE[]{}",: tfnulrase', min_size=1,
                            max_size=12).map(str.encode))
# Values put in place of one entry of the JSON header.
JSON_VALUES = st.sampled_from([None, False, True, 0, -1, 10 ** 20, 0.0, -0.0, 0.5, 1e308,
                               float("nan"), float("inf"), "", "x", [], {}])


def header_leaves(doc, path=()):
    """Key paths of every scalar or empty container in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    paths = [p for key, value in items for p in header_leaves(value, path + (key,))]
    return paths or [path]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_raises_only_data_or_config_error(checkpoint_file, data):
    raw = checkpoint_file.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    path = checkpoint_file.with_name("corrupt.ckpt")
    path.write_bytes(raw)
    mode = data.draw(st.sampled_from(["truncate", "overwrite", "header_entry"]))
    if mode == "header_entry":
        header = json.loads(raw[16:16 + header_len])
        *keys, last = data.draw(st.sampled_from(header_leaves(header)))
        value = data.draw(JSON_VALUES)

        def edit(h):
            for key in keys:
                h = h[key]
            h[last] = value
        _rewrite_header(path, edit)
    else:
        # half the cuts land in the magic, the length or the JSON header
        cut = data.draw(st.one_of(st.integers(0, 16 + header_len),
                                  st.integers(0, len(raw) - 1)))
        patch = data.draw(PATCHES) if mode == "overwrite" else b""
        path.write_bytes(raw[:cut] + patch + raw[cut + len(patch):] if patch else raw[:cut])
    try:
        load_checkpoint(path)
    except (DataError, ConfigError):
        pass
