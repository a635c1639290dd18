"""Unit tests for graph construction, decomposition, and distances."""

import csv
import http.server
import math
import threading
import urllib.parse

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regraph.errors import ConfigError, DataError
from regraph.graph import (
    EARTH_RADIUS_MILES,
    CachedProvider,
    HaversineProvider,
    RoutingProvider,
    SiteMeta,
    build_connected,
    decompose_random,
    decompose_regional,
    default_provider,
    degree,
    dense_operator,
    haversine_miles,
    load_sites,
    overlap_cost,
)
from regraph.graph.build import KERNEL_BLOCK, _assemble_graph, _kernel_weights


def site(site_id, region="WI", lat=43.0, lon=-89.0, capacity=50):
    return SiteMeta(site_id=site_id, region=region, latitude=lat, longitude=lon,
                    travel_time=10.0, owner=1, amenity_count=3, capacity=capacity)


class FakeProvider:
    """Distances looked up from an explicit pair table."""

    def __init__(self, table):
        self.table = {frozenset(k): v for k, v in table.items()}
        self.calls = 0

    def miles(self, a, b):
        self.calls += 1
        return self.table[frozenset((a.site_id, b.site_id))]


def kernel_matrix(g):
    """A graph's kernel weights as the dense n x n adjacency A."""
    a = np.zeros((g.n, g.n))
    for (i, j, _), w in zip(g.edges, g.weights):
        a[i, j] = a[j, i] = w
    return a


# ------------------------------------------------------------- haversine

def test_haversine_zero_for_identical_points():
    assert haversine_miles(43.07, -89.40, 43.07, -89.40) == 0.0


def test_haversine_antipodal():
    d = haversine_miles(0.0, 0.0, 0.0, 180.0)
    assert d == pytest.approx(np.pi * EARTH_RADIUS_MILES, rel=1e-12)


def test_haversine_madison_to_chicago():
    # Frozen from an independent spherical law-of-cosines computation.
    d = haversine_miles(43.0731, -89.4012, 41.8781, -87.6298)
    assert d == pytest.approx(122.3326, abs=0.1)


COORDINATES = st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))
SPECIAL_COORDINATES = st.sampled_from([
    (0.0, 0.0), (0.0, 180.0), (0.0, -180.0), (90.0, 0.0), (-90.0, 0.0), (90.0, 180.0),
    (-90.0, -180.0), (43.0731, -89.4012), (-43.0731, 90.5988), (1.0, 179.999999),
    (1.0, -179.999999), (43.0, -89.0), (-12.0, 7.0), (45.0, 45.0), (-45.0, -135.0),
    (43, -89), (0, 180), (-90, 0), (7, -7)])


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(SPECIAL_COORDINATES, COORDINATES),
       q=st.one_of(SPECIAL_COORDINATES, COORDINATES), same=st.booleans())
def test_haversine_provider_is_haversine_miles_bit_for_bit(p, q, same):
    q = p if same else q
    a, b = site("a", lat=p[0], lon=p[1]), site("b", lat=q[0], lon=q[1])
    expected = haversine_miles(p[0], p[1], q[0], q[1])
    got = HaversineProvider().miles(a, b)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (p, q, got, expected)


def test_haversine_provider_at_equal_points_antipodes_poles_and_the_antimeridian():
    h = HaversineProvider()
    for p, q in [((43.07, -89.40), (43.07, -89.40)), ((0.0, 0.0), (0.0, 180.0)),
                 ((30.0, 45.0), (-30.0, -135.0)), ((90.0, 0.0), (-90.0, 0.0)),
                 ((90.0, 10.0), (90.0, -170.0)), ((1.0, 179.5), (-1.0, -179.5)),
                 ((0.0, 180.0), (0.0, -180.0)), ((43, -89), (42, -88))]:
        a, b = site("a", lat=p[0], lon=p[1]), site("b", lat=q[0], lon=q[1])
        assert h.miles(a, b) == haversine_miles(*p, *q)
        assert h.miles(b, a) == haversine_miles(*q, *p)
    # antipodes clamp the arcsine at 1: half the circumference
    assert h.miles(site("a", lat=0.0, lon=0.0), site("b", lat=0.0, lon=180.0)) == \
        pytest.approx(np.pi * EARTH_RADIUS_MILES, rel=1e-12)


def test_site_derived_latitude_terms_are_not_fields_a_caller_sees():
    a = site("a", lat=30.0)
    assert a == site("a", lat=30.0) and hash(a) == hash(site("a", lat=30.0))
    assert "phi" not in repr(a)
    assert (a.phi, a.cos_phi) == (math.radians(30.0), math.cos(math.radians(30.0)))
    with pytest.raises(TypeError):
        SiteMeta(site_id="a", region="WI", latitude=1.0, longitude=1.0, travel_time=1.0,
                 owner=1, amenity_count=0, capacity=1, phi=0.0)


# -------------------------------------------------------- build_connected

def test_threshold_includes_30_excludes_50():
    sites = [site("a"), site("b"), site("c")]
    provider = FakeProvider({("a", "b"): 30.0, ("a", "c"): 50.0, ("b", "c"): 50.0})
    g = build_connected(sites, provider)
    assert [(i, j) for i, j, _ in g.edges] == [(0, 1)]


def test_raw_kernel_leaves_a_zero_mile_pair_out_of_the_edges():
    sites = [site("a"), site("b"), site("c")]
    provider = FakeProvider({("a", "b"): 0.0, ("a", "c"): 12.0, ("b", "c"): 12.0})
    g = build_connected(sites, provider, adjacency_weights="raw")
    assert g.edges == ((0, 2, 12.0), (1, 2, 12.0))
    assert [degree(g, i) for i in range(3)] == [1, 1, 2]
    assert np.count_nonzero(kernel_matrix(g)) == 2 * len(g.edges)


def test_single_site_graph():
    g = build_connected([site("only")], FakeProvider({}))
    np.testing.assert_array_equal(kernel_matrix(g), [[0.0]])
    np.testing.assert_array_equal(dense_operator(g, "normalized"), [[1.0]])


def test_two_site_binary_normalization():
    sites = [site("a"), site("b")]
    g = build_connected(sites, FakeProvider({("a", "b"): 10.0}), adjacency_weights="binary")
    np.testing.assert_array_equal(kernel_matrix(g), [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(dense_operator(g, "normalized"), [[0.5, 0.5], [0.5, 0.5]],
                               rtol=1e-15)


def test_gaussian_and_raw_kernels():
    sites = [site("a"), site("b")]
    provider = FakeProvider({("a", "b"): 10.0})
    g_gauss = build_connected(sites, provider, adjacency_weights="gaussian", sigma_miles=20.0)
    assert kernel_matrix(g_gauss)[0, 1] == pytest.approx(np.exp(-0.25), rel=1e-12)
    g_raw = build_connected(sites, provider, adjacency_weights="raw")
    assert kernel_matrix(g_raw)[0, 1] == 10.0


def test_duplicate_site_ids_rejected():
    with pytest.raises(DataError) as exc:
        build_connected([site("x"), site("x")], FakeProvider({}))
    assert "x" in str(exc.value)


def test_provider_failure_names_pair():
    class Boom:
        def miles(self, a, b):
            raise RuntimeError("socket closed")

    with pytest.raises(DataError) as exc:
        build_connected([site("s1"), site("s2")], Boom())
    msg = str(exc.value)
    assert "s1" in msg and "s2" in msg


def test_bad_kernel_name_rejected():
    with pytest.raises(ConfigError):
        build_connected([site("a")], FakeProvider({}), adjacency_weights="cosine")


def test_threshold_soundness_and_symmetry():
    rng = np.random.default_rng(13)
    sites = [site(f"s{i}", lat=43.0 + rng.uniform(-0.6, 0.6),
                  lon=-89.0 + rng.uniform(-0.6, 0.6)) for i in range(12)]
    g = build_connected(sites, HaversineProvider())
    h = HaversineProvider()
    for i, j, miles in g.edges:
        assert miles <= g.threshold_miles
        assert h.miles(sites[i], sites[j]) == pytest.approx(miles)
    adjacency, normalized = kernel_matrix(g), dense_operator(g, "normalized")
    np.testing.assert_array_equal(adjacency, adjacency.T)
    np.testing.assert_array_equal(normalized, normalized.T)


def test_normalized_operator_is_the_outer_product_scaling_in_one_array():
    import tracemalloc
    rng = np.random.default_rng(9)
    n = 300  # spread out, so the edges take little memory beside the n x n array
    sites = [site(f"s{i}", lat=43.0 + rng.uniform(-4.0, 4.0),
                  lon=-89.0 + rng.uniform(-4.0, 4.0)) for i in range(n)]
    g = build_connected(sites, HaversineProvider())
    tracemalloc.start()
    try:
        normalized = dense_operator(g, "normalized")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no second n x n array on the way (the outer product took one)
    assert peak < 1.25 * n * n * 8
    a = kernel_matrix(g) + np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(np.sum(a, axis=1))
    np.testing.assert_array_equal(normalized, a * np.outer(inv_sqrt, inv_sqrt))
    np.testing.assert_array_equal(normalized, normalized.T)


def test_binary_operator_spectrum_bounded():
    rng = np.random.default_rng(5)
    sites = [site(f"s{i}", lat=43.0 + rng.uniform(-0.5, 0.5),
                  lon=-89.0 + rng.uniform(-0.5, 0.5)) for i in range(15)]
    g = build_connected(sites, HaversineProvider(), adjacency_weights="binary")
    eigs = np.linalg.eigvalsh(dense_operator(g, "normalized"))
    assert np.max(eigs) <= 1.0 + 1e-9


def test_relabeling_equivariance():
    rng = np.random.default_rng(21)
    sites = [site(f"s{i}", lat=43.0 + rng.uniform(-0.5, 0.5),
                  lon=-89.0 + rng.uniform(-0.5, 0.5)) for i in range(8)]
    g = build_connected(sites, HaversineProvider())
    perm = rng.permutation(8)
    g2 = build_connected([sites[p] for p in perm], HaversineProvider())
    p_mat = np.eye(8)[perm]
    np.testing.assert_allclose(kernel_matrix(g2),
                               p_mat @ kernel_matrix(g) @ p_mat.T, atol=1e-12)


def test_graph_arrays_are_read_only():
    g = build_connected([site("a"), site("b")], FakeProvider({("a", "b"): 5.0}))
    for column in (g.ends, g.miles, g.weights, g.degrees):
        with pytest.raises(ValueError):
            column[0] = 99


def scalar_kernel_weight(miles: float, kind: str, sigma: float) -> float:
    """One pair's kernel weight, the scalar formula the edge columns must match."""
    if kind == "gaussian":
        return float(np.exp(-((miles / sigma) ** 2)))
    return 1.0 if kind == "binary" else miles


MILES = st.one_of(st.sampled_from([0.0, 40.0, 1e-300, 5e-324]),
                  st.floats(0.0, 40.0), st.floats(0.0, 1e4))


@settings(max_examples=200, deadline=None)
@given(miles=st.lists(MILES, max_size=50), kind=st.sampled_from(["gaussian", "binary", "raw"]),
       sigma=st.one_of(st.just(20.0), st.floats(0.01, 1e3), st.integers(1, 100)))
def test_kernel_weight_columns_are_the_scalar_formula_bit_for_bit(miles, kind, sigma):
    got = _kernel_weights(np.array(miles, dtype=np.float64), kind, sigma)
    want = np.array([scalar_kernel_weight(m, kind, sigma) for m in miles], dtype=np.float64)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_kernel_weight_columns_match_where_numpy_squares_differently():
    # draws where NumPy's square of m / sigma and Python's ** 2 round apart
    m = np.random.default_rng(7).uniform(0.0, 40.0, 20_000)
    assert np.any(np.square(m / 20.0) != np.array([(x / 20.0) ** 2 for x in m.tolist()]))
    want = np.array([scalar_kernel_weight(x, "gaussian", 20.0) for x in m.tolist()])
    assert _kernel_weights(m, "gaussian", 20.0).tobytes() == want.tobytes()


def test_gaussian_weights_hold_one_block_of_python_floats_at_a_time():
    import tracemalloc
    m = np.random.default_rng(5).uniform(0.0, 40.0, 1_000_000)
    tracemalloc.start()
    try:
        weights = _kernel_weights(m, "gaussian", 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the weights, and one block's list of miles, list of arguments and
    # argument array; the whole column as Python floats took about 64 MB
    assert peak < weights.nbytes + 100 * KERNEL_BLOCK
    whole = np.exp(np.array([-((x / 20.0) ** 2) for x in m.tolist()]))
    assert weights.tobytes() == whole.tobytes()


@pytest.mark.parametrize("i, j, miles, message", [
    ([0, 1], [1], [1.0, 2.0], "unequal lengths 2, 1 and 2"),
    ([0], [3], [1.0], r"graph edge \(0, 3\) is not a node pair i < j < 3"),
    ([-1], [1], [1.0], r"graph edge \(-1, 1\) is not a node pair"),
    ([1], [1], [1.0], r"graph edge \(1, 1\) is not a node pair"),
    ([2], [1], [1.0], r"graph edge \(2, 1\) is not a node pair"),
    ([0, 0], [1, 1], [1.0, 2.0], "more than one edge"),
    ([0], [1], [float("nan")], r"graph edge \(0, 1\): miles nan is not finite"),
    ([0], [1], [float("-inf")], "miles -inf is not finite"),
    ([0.0], [1], [1.0], "column i is not a column of integers"),
    ([0], [True], [1.0], "column j is not a column of integers"),
    ([0], [1], ["1.0"], "column miles is not a column of numbers"),
    ([[0]], [1], [1.0], "column i is not a column of integers"),
])
def test_malformed_edge_columns_are_named(i, j, miles, message):
    nodes = [site("a"), site("b"), site("c")]
    with pytest.raises(DataError, match=message):
        _assemble_graph(nodes, i, j, miles, 40.0, "gaussian", 20.0)


def test_edge_columns_in_any_order_assemble_sorted():
    nodes = [site("a"), site("b"), site("c")]
    g = _assemble_graph(nodes, [1, 0, 0], [2, 2, 1], [3.0, 2.0, 1.0], 40.0, "raw", 20.0)
    assert g.edges == ((0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0))
    assert g.weights.tolist() == [1.0, 2.0, 3.0] and g.ends.dtype == np.int64


# ----------------------------------------------------- decompose_regional

def four_node_two_region_graph():
    sites = [site("w1", "WI"), site("w2", "WI"), site("i1", "IA"), site("i2", "IA")]
    provider = FakeProvider({
        ("w1", "w2"): 10.0, ("i1", "i2"): 12.0, ("w2", "i1"): 20.0,
        ("w1", "i1"): 90.0, ("w1", "i2"): 90.0, ("w2", "i2"): 90.0,
    })
    return sites, build_connected(sites, provider)


def test_regional_partition_drops_cross_edges():
    _, g = four_node_two_region_graph()
    assert len(g.edges) == 3
    part = decompose_regional(g)
    assert part.region_order == ("IA", "WI")
    assert part.subgraphs["WI"].n == 2 and part.subgraphs["IA"].n == 2
    assert len(part.subgraphs["WI"].edges) == 1
    assert len(part.subgraphs["IA"].edges) == 1


def test_regional_partition_single_region_is_identity():
    sites = [site("a"), site("b"), site("c")]
    provider = FakeProvider({("a", "b"): 5.0, ("a", "c"): 7.0, ("b", "c"): 90.0})
    g = build_connected(sites, provider)
    part = decompose_regional(g)
    assert part.region_order == ("WI",)
    sub = part.subgraphs["WI"]
    assert sub.edges == g.edges
    np.testing.assert_array_equal(kernel_matrix(sub), kernel_matrix(g))
    np.testing.assert_array_equal(dense_operator(sub, "normalized"),
                                  dense_operator(g, "normalized"))


def test_regional_partition_rejects_empty_region():
    sites = [site("a", region=""), site("b")]
    g = build_connected(sites, FakeProvider({("a", "b"): 5.0}))
    with pytest.raises(DataError):
        decompose_regional(g)


def test_regional_degree_monotonicity():
    sites, g = four_node_two_region_graph()
    part = decompose_regional(g)
    for label in part.region_order:
        sub = part.subgraphs[label]
        idx = part.node_indices[label]
        for k in range(sub.n):
            assert degree(sub, k) <= degree(g, int(idx[k]))


def test_regional_subgraph_normalization_is_local():
    _, g = four_node_two_region_graph()
    part = decompose_regional(g)
    for label in part.region_order:
        sub = part.subgraphs[label]
        normalized = dense_operator(sub, "normalized")
        np.testing.assert_allclose(normalized, normalized.T, atol=1e-15)
        eigs = np.linalg.eigvalsh(normalized)
        assert np.max(np.abs(normalized.sum())) > 0
        assert eigs.shape == (sub.n,)


# ------------------------------------------------------- decompose_random

def grid_graph(n, seed=0):
    rng = np.random.default_rng(seed)
    sites = [site(f"s{i}", region="WI", lat=43.0 + rng.uniform(-0.5, 0.5),
                  lon=-89.0 + rng.uniform(-0.5, 0.5)) for i in range(n)]
    return sites, build_connected(sites, HaversineProvider())


def test_random_partition_group_sizes_and_edges():
    _, g = grid_graph(4)
    part = decompose_random(g, r=2, seed=0)
    assert sorted(sub.n for sub in part.subgraphs.values()) == [2, 2]
    for sub in part.subgraphs.values():
        assert len(sub.edges) == 1


def test_random_partition_r1_is_complete():
    _, g = grid_graph(5)
    part = decompose_random(g, r=1, seed=3)
    sub = part.subgraphs[part.region_order[0]]
    assert sub.n == 5
    assert len(sub.edges) == 10


def test_random_partition_seed_determinism():
    _, g = grid_graph(12)
    p1 = decompose_random(g, r=3, seed=42)
    p2 = decompose_random(g, r=3, seed=42)
    assert dict(p1.region_of) == dict(p2.region_of)
    p3 = decompose_random(g, r=3, seed=43)
    assert dict(p1.region_of) != dict(p3.region_of)


def test_random_partition_near_equal_sizes():
    _, g = grid_graph(11)
    part = decompose_random(g, r=3, seed=1)
    sizes = sorted(sub.n for sub in part.subgraphs.values())
    assert sizes == [3, 4, 4]


def test_random_partition_r_out_of_range():
    _, g = grid_graph(4)
    with pytest.raises(ConfigError):
        decompose_random(g, r=5, seed=0)
    with pytest.raises(ConfigError):
        decompose_random(g, r=0, seed=0)


def test_partition_covers_all_nodes():
    _, g = grid_graph(10)
    for part in (decompose_regional(g), decompose_random(g, r=4, seed=7)):
        ids = sorted(s.site_id for sub in part.subgraphs.values() for s in sub.nodes)
        assert ids == sorted(s.site_id for s in g.nodes)


# --------------------------------------------------- degree, overlap_cost

def test_path_graph_degrees():
    sites = [site("a"), site("b"), site("c")]
    provider = FakeProvider({("a", "b"): 5.0, ("b", "c"): 5.0, ("a", "c"): 90.0})
    g = build_connected(sites, provider)
    assert [degree(g, i) for i in range(3)] == [1, 2, 1]


def test_degree_index_out_of_range():
    g = build_connected([site("a")], FakeProvider({}))
    with pytest.raises(IndexError):
        degree(g, 1)


def test_overlap_cost_partition_below_full_graph():
    _, g = grid_graph(12)
    part = decompose_random(g, r=3, seed=0)
    assert overlap_cost(part, 2.0) < overlap_cost(g, 2.0)
    assert overlap_cost(g, 2.0) == pytest.approx(24.0)
    assert overlap_cost(part, 2.0) == pytest.approx(8.0)


# ------------------------------------------------------------- load_sites

def test_load_sites_round_trip(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text(
        "site_id,region,lat,lon,travel_time_min,owner,amenities,capacity\n"
        "s1,WI,43.1,-89.4,12.5,1,4,80\n"
        "s2,IA,41.6,-93.6,8.0,0,2,35\n",
        encoding="utf-8",
    )
    sites = load_sites(path)
    assert [s.site_id for s in sites] == ["s1", "s2"]
    assert sites[0].capacity == 80
    assert sites[1].owner == 0
    assert sites[1].region == "IA"


def test_load_sites_bad_header(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("id,region\nx,WI\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_sites(path)


def test_load_sites_duplicate_id(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text(
        "site_id,region,lat,lon,travel_time_min,owner,amenities,capacity\n"
        "s1,WI,43.1,-89.4,12.5,1,4,80\n"
        "s1,WI,43.2,-89.5,12.5,1,4,80\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError) as exc:
        load_sites(path)
    assert "duplicate" in str(exc.value)


def test_load_sites_invalid_capacity(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text(
        "site_id,region,lat,lon,travel_time_min,owner,amenities,capacity\n"
        "s1,WI,43.1,-89.4,12.5,1,4,0\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError):
        load_sites(path)


# A row is ("ok", site_id, lat, lon, travel time, owner, amenities, capacity),
# ("blank",), ("fields", n): a valid row cut to n fields or extended past eight,
# or ("bad", column, text): a valid row with one cell replaced by an invalid value.
OK_SITE_ROWS = st.tuples(
    st.just("ok"), st.sampled_from(["s1", "s2", "s,3", "s 4"]),
    st.floats(-90.0, 90.0), st.floats(-180.0, 180.0), st.floats(0.0, 1e4),
    st.sampled_from([0, 1]), st.integers(0, 12), st.integers(1, 500))
ODD_SITE_ROWS = st.one_of(
    st.just(("blank",)),
    st.tuples(st.just("fields"), st.sampled_from([1, 2, 7, 9, 10])),
    st.tuples(st.just("bad"), st.sampled_from([
        (0, ""), (2, "north"), (2, "90.5"), (2, "nan"), (3, "-180.01"), (3, "-inf"),
        (4, "inf"), (4, "-inf"), (4, "nan"), (4, "-5.0"), (4, "soon"), (5, "2"), (5, "1.0"),
        (6, "-1"), (6, "x"), (7, "0"), (7, ""),
    ])))
VALID_SITE_CELLS = ["s9", "WI", "43.1", "-89.4", "12.5", "1", "4", "80"]


def site_cells(row):
    if row[0] == "ok":
        return [row[1], "R"] + [repr(v) for v in row[2:5]] + [str(v) for v in row[5:]]
    if row[0] == "fields":
        return (VALID_SITE_CELLS + ["x", ""])[:row[1]]
    column, text = row[1]
    return VALID_SITE_CELLS[:column] + [text] + VALID_SITE_CELLS[column + 1:]


def expected_sites(rows):
    """The sites of the "ok" rows, or None when the file must be rejected."""
    if any(row[0] in ("fields", "bad") for row in rows):
        return None
    ok = [row for row in rows if row[0] == "ok"]
    ids = [row[1] for row in ok]
    if not ok or len(set(ids)) != len(ids):
        return None
    return [SiteMeta(site_id=r[1], region="R", latitude=r[2], longitude=r[3],
                     travel_time=r[4], owner=r[5], amenity_count=r[6], capacity=r[7])
            for r in ok]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.one_of(OK_SITE_ROWS, OK_SITE_ROWS, ODD_SITE_ROWS), max_size=10))
def test_load_sites_matches_reference_or_raises_data_error(tmp_path, rows):
    path = tmp_path / "sites.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "region", "lat", "lon", "travel_time_min",
                         "owner", "amenities", "capacity"])
        for row in rows:
            if row[0] == "blank":
                fh.write("\r\n")
            else:
                writer.writerow(site_cells(row))
    expected = expected_sites(rows)
    if expected is None:
        with pytest.raises(DataError):
            load_sites(path)
        return
    assert load_sites(path) == expected


def test_site_meta_validation():
    with pytest.raises(DataError):
        site("bad", lat=123.0)
    with pytest.raises(DataError):
        SiteMeta("x", "WI", 43.0, -89.0, 1.0, owner=2, amenity_count=0, capacity=5)
    with pytest.raises(DataError, match=r"travel time -5.0 not in \[0, inf\)"):
        SiteMeta("x", "WI", 43.0, -89.0, -5.0, owner=1, amenity_count=0, capacity=5)


# -------------------------------------------------------------- providers

def test_cached_provider_memoizes_and_persists(tmp_path):
    cache_path = tmp_path / "cache.csv"
    inner = FakeProvider({("a", "b"): 17.25})
    cached = CachedProvider(inner, cache_path)
    a, b = site("a"), site("b")
    assert cached.miles(a, b) == 17.25
    assert cached.miles(b, a) == 17.25  # symmetric key
    assert inner.calls == 1

    reloaded = CachedProvider(FakeProvider({}), cache_path)
    assert reloaded.miles(a, b) == 17.25  # served from disk, no inner call


def test_routing_provider_failure_names_pair():
    bad = RoutingProvider("not-a-valid-url")
    with pytest.raises(DataError) as exc:
        bad.miles(site("p"), site("q"))
    msg = str(exc.value)
    assert "p" in msg and "q" in msg


class RoutingHandler(http.server.BaseHTTPRequestHandler):
    """Answers /ok with 12.5 miles, /fail with a 500, and other paths with a bad body."""

    queries: list = []

    def do_GET(self):
        path, _, query = self.path.partition("?")
        self.queries.append(urllib.parse.parse_qs(query))
        body = {"/ok": b'{"miles": 12.5}', "/fail": b"oops",
                "/text": b'{"miles": "far"}'}.get(path, b'{"distance": 3}')
        self.send_response(500 if path == "/fail" else 200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def routing_url(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setenv("NO_PROXY", "*")
    server = http.server.HTTPServer(("127.0.0.1", 0), RoutingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.mark.parametrize("path, base_query", [("/ok", {}), ("/ok?key=K%3D1", {"key": ["K=1"]})],
                         ids=["plain", "with_query"])
def test_routing_provider_reads_miles_from_loopback_service(routing_url, path, base_query):
    RoutingHandler.queries.clear()
    a, b = site("p", lat=43.5, lon=-89.25), site("q", lat=44.0, lon=-90.0)
    assert RoutingProvider(routing_url + path).miles(a, b) == 12.5
    assert RoutingHandler.queries == [{**base_query, "olat": ["43.5"], "olon": ["-89.25"],
                                       "dlat": ["44.0"], "dlon": ["-90.0"]}]


def test_routing_provider_rejects_urls_other_than_http(tmp_path):
    answer = tmp_path / "route.json"
    answer.write_text('{"miles": 12.5}', encoding="utf-8")  # urlopen alone would read it
    for url in [answer.as_uri(), "ftp://127.0.0.1/route"]:
        with pytest.raises(DataError, match=r"pair \(p, q\): .* is not an http or https URL"):
            RoutingProvider(url).miles(site("p"), site("q"))


@pytest.mark.parametrize("path", ["/fail", "/nomiles", "/text"])
def test_routing_provider_bad_response_names_pair(routing_url, path):
    with pytest.raises(DataError, match=r"routing distance failed for pair \(p, q\)"):
        RoutingProvider(routing_url + path, timeout_s=5.0).miles(site("p"), site("q"))


def test_default_provider_selection(tmp_path):
    assert isinstance(default_provider({}), HaversineProvider)
    assert isinstance(default_provider({"REGRAPH_ROUTING_URL": "http://x"}), RoutingProvider)
    cache = default_provider({"REGRAPH_DISTANCE_CACHE": str(tmp_path / "c.csv")})
    assert isinstance(cache, CachedProvider)
    assert isinstance(cache.inner, HaversineProvider)
