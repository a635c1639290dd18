"""Site graphs, their dense operators, and decompositions.

A graph connects parking sites whose pairwise distance is at or below a
threshold (default 40 miles, roughly a 30-minute drive). It keeps only its
edges, as columns of node pairs, raw miles and kernel weights that whole-array
passes validate, sort and split; ``dense_operator`` builds
from them an n x n operator a model multiplies by, and ``neighbor_lists``
the binary adjacency as sorted neighbor lists, which ``neighbor_sum``
multiplies by in NumPy. Two decompositions
split the graph into independent blocks: one per state label, and one
into seeded random groups that are fully connected internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, DataError
from ..files import open_csv
from .distance import DistanceProvider, HaversineProvider

__all__ = [
    "SITES_HEADER",
    "RegionalPartition",
    "SiteGraph",
    "SiteMeta",
    "build_connected",
    "decompose_random",
    "decompose_regional",
    "degree",
    "dense_operator",
    "load_sites",
    "neighbor_lists",
    "neighbor_sum",
    "overlap_cost",
    "partition_from_assignment",
]

SITES_HEADER = ["site_id", "region", "lat", "lon", "travel_time_min",
                "owner", "amenities", "capacity"]

ADJACENCY_KERNELS = ("gaussian", "binary", "raw")
KERNEL_BLOCK = 1 << 15  # edges whose gaussian arguments are Python floats at once


@dataclass(frozen=True)
class SiteMeta:
    """One parking site's static attributes."""

    site_id: str
    region: str
    latitude: float
    longitude: float
    travel_time: float
    owner: int
    amenity_count: int
    capacity: int
    # derived for the haversine provider: the latitude in radians and its cosine
    phi: float = field(init=False, repr=False, compare=False)
    cos_phi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.site_id:
            raise DataError("site: empty site_id")
        if not -90.0 <= self.latitude <= 90.0:
            raise DataError(f"site {self.site_id}: latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise DataError(f"site {self.site_id}: longitude {self.longitude} outside [-180, 180]")
        if not 0.0 <= self.travel_time < math.inf:
            raise DataError(f"site {self.site_id}: travel time {self.travel_time} not in [0, inf)")
        if self.owner not in (0, 1):
            raise DataError(f"site {self.site_id}: owner must be 0 (private) or 1 (public)")
        if self.amenity_count < 0:
            raise DataError(f"site {self.site_id}: negative amenity count")
        if self.capacity < 1:
            raise DataError(f"site {self.site_id}: capacity must be >= 1")
        phi = math.radians(self.latitude)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "cos_phi", math.cos(phi))


def load_sites(path: str | Path) -> list[SiteMeta]:
    """Read the sites CSV (columns: site_id,region,lat,lon,travel_time_min,owner,amenities,capacity).

    Blank lines are skipped; any other row must have exactly the eight
    header fields.
    """
    sites: list[SiteMeta] = []
    seen: set[str] = set()
    with open_csv(path, SITES_HEADER, "sites") as reader:
        for row in reader:
            if not row:
                continue
            try:
                site_id, region, lat, lon, travel, owner, amenities, capacity = row
                site = SiteMeta(site_id=site_id, region=region,
                                latitude=float(lat), longitude=float(lon),
                                travel_time=float(travel), owner=int(owner),
                                amenity_count=int(amenities), capacity=int(capacity))
            except ValueError as exc:
                raise DataError(f"sites file {path} line {reader.line_num}: {exc}") from exc
            if site.site_id in seen:
                raise DataError(f"sites file {path} line {reader.line_num}: "
                                f"duplicate site_id {site.site_id}")
            seen.add(site.site_id)
            sites.append(site)
    if not sites:
        raise DataError(f"sites file {path}: no data rows")
    return sites


def _kernel_weights(miles: np.ndarray, kind: str, sigma: float) -> np.ndarray:
    """Each distance's kernel weight, a new array. The gaussian argument is
    Python's ``-((m / sigma) ** 2)`` per distance, as NumPy's square rounds
    some 1 ulp apart from ``** 2``, taken ``KERNEL_BLOCK`` edges at a time;
    one ``np.exp`` per block then gives the scalar bits."""
    if kind == "gaussian":
        out = np.empty(len(miles))
        for start in range(0, len(miles), KERNEL_BLOCK):
            block = slice(start, start + KERNEL_BLOCK)
            np.exp([-((m / sigma) ** 2) for m in miles[block].tolist()], out=out[block])
        return out
    if kind == "binary":
        return np.ones(len(miles))
    if kind == "raw":
        return miles.copy()
    raise ConfigError(f"adjacency_weights must be one of {ADJACENCY_KERNELS}, got {kind!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SiteGraph:
    """An undirected site graph, kept as edge columns.

    ``ends`` holds each edge's node pair (i, j), i < j, as an edges x 2
    array in ascending (i, j) order, for the pairs of nonzero kernel
    weight; ``miles`` and ``weights`` hold each edge's distance and kernel
    weight. ``degrees`` counts each node's neighbors: its edges of positive
    weight. Arrays are read-only.
    """

    nodes: tuple[SiteMeta, ...]
    ends: np.ndarray
    miles: np.ndarray
    weights: np.ndarray
    threshold_miles: float
    adjacency_weights: str
    sigma_miles: float
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "degrees", np.bincount(self.ends[self.weights > 0].ravel(),
                                                        minlength=self.n))
        for arr in (self.ends, self.miles, self.weights, self.degrees):
            _freeze(arr)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Each edge's (i, j, miles), in edge order, built from the columns on each read."""
        return tuple(zip(self.ends[:, 0].tolist(), self.ends[:, 1].tolist(), self.miles.tolist()))


def _edge_columns(i, j, miles, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(i, j, miles) columns, built or stored, as new int64 ``ends`` (edges x 2)
    and float64 ``miles``. A DataError names the first fault: a column that
    is not flat integers (i, j) or numbers (miles), columns of unequal length,
    a pair that is not i < j < ``n``, a distance that is not finite."""
    columns = []
    for name, values, kinds in (("i", i, "iu"), ("j", j, "iu"), ("miles", miles, "iuf")):
        arr = np.asarray(values)
        if arr.size and (arr.ndim != 1 or arr.dtype.kind not in kinds):
            raise DataError(f"{what} column {name} is not a column of "
                            f"{'numbers' if name == 'miles' else 'integers'}")
        columns.append(arr.astype(np.float64 if name == "miles" else np.int64).reshape(-1))
    first, second, miles = columns
    if not len(first) == len(second) == len(miles):
        raise DataError(f"{what}: columns i, j and miles of unequal lengths "
                        f"{len(first)}, {len(second)} and {len(miles)}")
    bad = np.flatnonzero((first < 0) | (first >= second) | (second >= n))
    if bad.size:
        k = bad[0]
        raise DataError(f"{what} ({first[k]}, {second[k]}) is not a node pair i < j < {n}")
    bad = np.flatnonzero(~np.isfinite(miles))
    if bad.size:
        k = bad[0]
        raise DataError(f"{what} ({first[k]}, {second[k]}): miles {miles[k]} is not finite")
    return np.stack([first, second], axis=1), miles


def _assemble_graph(nodes: Sequence[SiteMeta], i, j, miles,
                    threshold: float, kernel: str, sigma: float) -> SiteGraph:
    """The one path from (i, j, miles) columns, built or stored, to a graph:
    validated, weighted, pairs of zero weight left out, sorted by (i, j)."""
    if kernel == "gaussian" and not sigma > 0:
        raise ConfigError(f"sigma_miles must be > 0 for the gaussian kernel, got {sigma}")
    n = len(nodes)
    ends, miles = _edge_columns(i, j, miles, n, "graph edge")
    weights = _kernel_weights(miles, kernel, sigma)
    linked = np.flatnonzero(weights)  # e.g. two sites 0 miles apart under the raw kernel: no link
    key = ends[linked, 0] * n + ends[linked, 1]
    order = np.argsort(key, kind="stable")
    if np.any(np.diff(key[order]) == 0):
        raise DataError("graph: a node pair has more than one edge")
    order = linked[order]
    return SiteGraph(nodes, ends[order], miles[order], weights[order], threshold, kernel, sigma)


def neighbor_lists(g: SiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """The binary adjacency in CSR form: ``(starts, neighbors)``.

    Node i's neighbors, the other ends of its edges of positive weight, are
    ``neighbors[starts[i]:starts[i + 1]]``, in ascending order; ``starts``
    has n + 1 entries. Each edge appears from both ends. Arrays are
    read-only.
    """
    ends = g.ends[g.weights > 0]
    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    starts = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(g.degrees, out=starts[1:])
    return _freeze(starts), _freeze(cols[np.lexsort((cols, rows))])


def neighbor_sum(lists: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """``A v`` per n-row block of ``v``, for A the binary adjacency of
    ``neighbor_lists``: a node's neighbor rows added in ascending order.

    Nodes go in order of falling degree, so the nodes that have an s-th
    neighbor are a prefix, and slot s adds those neighbors' rows (of every
    block at once) to that prefix in one gather.
    """
    starts, neighbors = lists
    n = len(starts) - 1
    m, width = v.shape[0] // n, v.shape[1]
    node_rows = v.reshape(m, n, width).transpose(1, 0, 2).reshape(n, m * width)
    degrees = np.diff(starts)
    order = np.argsort(-degrees, kind="stable")
    first = starts[order]
    acc = np.zeros((n, m * width))
    slots = np.searchsorted(-degrees[order], -np.arange(degrees.max(initial=0)))
    for s, taking in enumerate(slots):
        acc[:taking] += node_rows[neighbors[first[:taking] + s]]
    out = np.empty_like(acc)
    out[order] = acc
    return out.reshape(n, m, width).transpose(1, 0, 2).reshape(m * n, width)


def dense_operator(g: SiteGraph, kind: str) -> np.ndarray:
    """One n x n operator of the graph, built from its edges.

    ``binary``: 1.0 for each pair of positive kernel weight, zero diagonal.
    ``normalized``: the symmetric normalization with self-loops of the
    kernel weights A, D^-1/2 (A+I) D^-1/2.
    """
    ends, weights = g.ends, g.weights
    if kind == "binary":
        ends, weights = ends[weights > 0], 1.0
    elif kind != "normalized":
        raise ConfigError(f"dense operator must be binary or normalized, got {kind!r}")
    a = np.zeros((g.n, g.n))
    a[ends[:, 0], ends[:, 1]] = weights
    a[ends[:, 1], ends[:, 0]] = weights
    if kind == "normalized":
        np.fill_diagonal(a, 1.0)  # A+I: no edge is a self-loop
        inv_sqrt = 1.0 / np.sqrt(np.sum(a, axis=1))
        # Row by row, the products of the symmetric outer product
        # inv_sqrt[i] * inv_sqrt[j], so the result is exactly symmetric
        # without a second n x n array.
        for i, row in enumerate(a):
            row *= inv_sqrt[i] * inv_sqrt
    return a


def build_connected(sites: Sequence[SiteMeta], provider: DistanceProvider | None = None,
                    threshold_miles: float = 40.0, adjacency_weights: str = "gaussian",
                    sigma_miles: float = 20.0) -> SiteGraph:
    """Connect every pair of sites within the distance threshold."""
    if not sites:
        raise DataError("build_connected: no sites")
    if not threshold_miles > 0:
        raise ConfigError(f"threshold_miles must be > 0, got {threshold_miles}")
    if adjacency_weights not in ADJACENCY_KERNELS:
        raise ConfigError(
            f"adjacency_weights must be one of {ADJACENCY_KERNELS}, got {adjacency_weights!r}")
    ids = [s.site_id for s in sites]
    if len(set(ids)) != len(ids):
        dup = sorted({x for x in ids if ids.count(x) > 1})
        raise DataError(f"build_connected: duplicate site ids {dup}")
    provider = provider or HaversineProvider()

    # each edge's j and miles, and per i the count of edges of rows 0 to i
    far, near_miles, row_ends = [], [], []
    distance = provider.miles
    n = len(sites)
    try:
        for i, a in enumerate(sites):
            for j in range(i + 1, n):
                miles = float(distance(a, sites[j]))
                if miles <= threshold_miles:
                    far.append(j)
                    near_miles.append(miles)
            row_ends.append(len(far))
    except DataError:
        raise
    except Exception as exc:
        raise DataError(f"distance provider failed for pair ({a.site_id}, {sites[j].site_id}): "
                        f"{exc}") from exc
    near = np.repeat(np.arange(n), np.diff(row_ends, prepend=0))
    return _assemble_graph(sites, near, far, near_miles, threshold_miles, adjacency_weights,
                           sigma_miles)


@dataclass(frozen=True)
class RegionalPartition:
    """A split of a graph into disjoint subgraphs, one per group label.

    ``node_indices`` maps each label to the parent-graph indices of its
    nodes (in parent order): the rows model code takes out of a full
    node-feature matrix to form that group's block. A random partition's
    ``pairs`` are the (ends, miles) of its in-group pairs the graph does not
    link, group by group: the distances a stored partition keeps.
    """

    strategy: str
    region_of: Mapping[str, str]
    subgraphs: Mapping[str, SiteGraph]
    region_order: tuple[str, ...]
    node_indices: Mapping[str, np.ndarray] = field(repr=False)
    pairs: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def _partition(g: SiteGraph, assignment: Mapping[str, str], strategy: str,
               pair_miles: Callable[[np.ndarray], Sequence[float]]) -> RegionalPartition:
    """The one path from a site-id to label mapping to a partition, built or stored.

    A group's subgraph holds the parent edges inside it, with the parent's
    miles and weights; a random group's also holds its other pairs of
    nonzero weight, whose miles ``pair_miles`` gives for their ends.
    """
    if strategy not in ("regional", "random"):
        raise ConfigError(f"partition strategy must be regional or random, got {strategy!r}")
    missing = [s.site_id for s in g.nodes if s.site_id not in assignment]
    if missing:
        raise DataError(f"partition assignment missing sites {missing[:5]}")
    if len(assignment) != g.n:
        ids = {s.site_id for s in g.nodes}
        raise DataError(f"partition assignment names sites that are not in the graph: "
                        f"{[k for k in assignment if k not in ids][:5]}")
    label_of = [assignment[s.site_id] for s in g.nodes]
    labels = sorted(set(label_of))
    code = {label: k for k, label in enumerate(labels)}
    codes = np.array([code[label] for label in label_of], dtype=np.int64)
    members = [_freeze(np.flatnonzero(codes == k)) for k in range(len(labels))]
    local = np.empty(g.n, dtype=np.int64)
    for idx in members:
        local[idx] = np.arange(len(idx))

    inside = np.flatnonzero(codes[g.ends[:, 0]] == codes[g.ends[:, 1]])
    ends, miles, weights = g.ends[inside], g.miles[inside], g.weights[inside]
    pairs = None
    if strategy == "random":
        group_pairs = np.concatenate([idx[np.stack(np.triu_indices(len(idx), 1), axis=1)]
                                      for idx in members])
        key = group_pairs[:, 0] * g.n + group_pairs[:, 1]
        unlinked = group_pairs[~np.isin(key, g.ends[:, 0] * g.n + g.ends[:, 1])]
        pairs = _edge_columns(unlinked[:, 0], unlinked[:, 1], pair_miles(unlinked), g.n,
                              "partition pair")
        far_weights = _kernel_weights(pairs[1], g.adjacency_weights, g.sigma_miles)
        far = np.flatnonzero(far_weights)
        ends = np.concatenate([ends, pairs[0][far]])
        miles = np.concatenate([miles, pairs[1][far]])
        weights = np.concatenate([weights, far_weights[far]])
        pairs = tuple(_freeze(a) for a in pairs)
    # group by group, each in (i, j) order, which is its local order too
    order = np.lexsort((ends[:, 1], ends[:, 0], codes[ends[:, 0]]))
    cuts = np.searchsorted(codes[ends[order, 0]], np.arange(len(labels) + 1))
    ends, miles, weights = local[ends[order]], miles[order], weights[order]
    subgraphs = {}
    for k, label in enumerate(labels):
        edges = slice(cuts[k], cuts[k + 1])
        subgraphs[label] = SiteGraph([g.nodes[p] for p in members[k].tolist()], ends[edges],
                                     miles[edges], weights[edges], g.threshold_miles,
                                     g.adjacency_weights, g.sigma_miles)
    return RegionalPartition(
        strategy=strategy, region_of={s.site_id: label for s, label in zip(g.nodes, label_of)},
        subgraphs=subgraphs, region_order=tuple(labels),
        node_indices=dict(zip(labels, members)), pairs=pairs)


def partition_from_assignment(g: SiteGraph, assignment: Mapping[str, str],
                              strategy: str,
                              provider: DistanceProvider | None = None) -> RegionalPartition:
    """A partition of ``g`` by a site-id to label mapping, labels in ``sorted``
    order, the order a stored partition is read back in.

    A regional subgraph keeps the parent's edges whose endpoints share a
    label, so a node lands in its label's group alone, adds no degree, and
    keeps each parent edge inside the group at the same miles and weight. A
    random subgraph is complete: ``provider`` (haversine when not given)
    measures the pairs the parent does not link (nodes in parent order).
    """
    distance = (provider or HaversineProvider()).miles
    return _partition(g, assignment, strategy, lambda ends: [
        float(distance(g.nodes[i], g.nodes[j])) for i, j in ends.tolist()])


def decompose_regional(g: SiteGraph) -> RegionalPartition:
    """One subgraph per state label; only intra-region edges survive."""
    for s in g.nodes:
        if not s.region:
            raise DataError(f"decompose_regional: site {s.site_id} has no region label")
    return partition_from_assignment(g, {s.site_id: s.region for s in g.nodes}, "regional")


def decompose_random(g: SiteGraph, r: int, seed: int,
                     provider: DistanceProvider | None = None) -> RegionalPartition:
    """Shuffle nodes into r near-equal groups, each fully connected inside.

    Group membership ignores geography, so pairs beyond the parent graph's
    threshold still need distances; they come from ``provider`` (haversine
    when not given).
    """
    n = g.n
    if not 1 <= r <= n:
        raise ConfigError(f"decompose_random: need 1 <= r <= {n}, got r={r}")
    if seed < 0:
        raise ConfigError(f"decompose_random: seed must be >= 0, got {seed}")
    order = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, r)
    group = np.repeat(np.arange(r), [base + (1 if k < extra else 0) for k in range(r)])
    assignment = {g.nodes[int(p)].site_id: f"group_{k}" for p, k in zip(order, group)}
    return partition_from_assignment(g, assignment, "random", provider)


def degree(g: SiteGraph, i: int) -> int:
    """Count of neighbors of node i (its edges of positive kernel weight)."""
    if not 0 <= i < g.n:
        raise IndexError(f"degree: node index {i} out of range for {g.n} nodes")
    return int(g.degrees[i])


def overlap_cost(obj: SiteGraph | RegionalPartition, l_avg: float) -> float:
    """Per-node repeated-aggregation count.

    On a whole graph every node is touched by all n rows of the operator
    at each of l_avg propagation steps: n * l_avg. On a partition a node
    is only touched within its group, so the cost is the group-size
    average: mean over groups of (group size * l_avg).
    """
    if isinstance(obj, SiteGraph):
        return obj.n * l_avg
    sizes = [obj.subgraphs[label].n for label in obj.region_order]
    return float(np.mean([s * l_avg for s in sizes]))
