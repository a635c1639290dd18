"""Site graphs, their dense operators, and decompositions.

A graph connects parking sites whose pairwise distance is at or below a
threshold (default 40 miles, roughly a 30-minute drive). It keeps only its
edges with their raw miles and kernel weights; ``dense_operator`` builds
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
from typing import Mapping, Sequence

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
# Per kernel, a distance of zero weight: such a pair is no edge. Every
# binary pair has weight 1.
UNLINKED_MILES = {"gaussian": math.inf, "raw": 0.0}


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


def _kernel_weight(miles: float, kind: str, sigma: float) -> float:
    if kind == "gaussian":
        return float(np.exp(-((miles / sigma) ** 2)))
    if kind == "binary":
        return 1.0
    if kind == "raw":
        return miles
    raise ConfigError(f"adjacency_weights must be one of {ADJACENCY_KERNELS}, got {kind!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SiteGraph:
    """An undirected site graph, kept as its edges.

    ``edges`` holds (i, j, miles) with i < j for the pairs of nonzero
    kernel weight, and ``weights`` each edge's kernel weight, in edge
    order. ``degrees`` counts each node's neighbors: its edges of positive
    weight. Arrays are read-only.
    """

    nodes: tuple[SiteMeta, ...]
    edges: tuple[tuple[int, int, float], ...]
    weights: np.ndarray
    degrees: np.ndarray
    threshold_miles: float
    adjacency_weights: str
    sigma_miles: float

    @property
    def n(self) -> int:
        return len(self.nodes)


def _assemble_graph(nodes: Sequence[SiteMeta], edges: Sequence[tuple[int, int, float]],
                    threshold: float, kernel: str, sigma: float) -> SiteGraph:
    if kernel == "gaussian" and not sigma > 0:
        raise ConfigError(f"sigma_miles must be > 0 for the gaussian kernel, got {sigma}")
    n = len(nodes)
    linked = []
    for i, j, miles in edges:
        if not 0 <= i < j < n:
            raise DataError(f"graph edge ({i}, {j}) is not a node pair i < j < {n}")
        w = _kernel_weight(miles, kernel, sigma)
        if w != 0.0:  # e.g. two sites 0 miles apart under the raw kernel: no link
            linked.append((i, j, miles, w))
    linked.sort()
    ends = np.array([e[:2] for e in linked], dtype=np.int64).reshape(-1, 2)
    if np.any(np.all(ends[1:] == ends[:-1], axis=1)):
        raise DataError("graph: a node pair has more than one edge")
    weights = np.array([e[3] for e in linked], dtype=np.float64)
    return SiteGraph(
        nodes=tuple(nodes),
        edges=tuple(e[:3] for e in linked),
        weights=_freeze(weights),
        degrees=_freeze(np.bincount(ends[weights > 0].ravel(), minlength=n)),
        threshold_miles=threshold,
        adjacency_weights=kernel,
        sigma_miles=sigma,
    )


def _edge_ends(g: SiteGraph) -> np.ndarray:
    """The (i, j) of every edge, in edge order, as an edges x 2 array.

    Filled straight from the edge tuples, with no list of pairs between.
    """
    return np.fromiter((v for e in g.edges for v in e[:2]), np.int64,
                       2 * len(g.edges)).reshape(-1, 2)


def neighbor_lists(g: SiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """The binary adjacency in CSR form: ``(starts, neighbors)``.

    Node i's neighbors, the other ends of its edges of positive weight, are
    ``neighbors[starts[i]:starts[i + 1]]``, in ascending order; ``starts``
    has n + 1 entries. Each edge appears from both ends. Arrays are
    read-only.
    """
    ends = _edge_ends(g)[g.weights > 0]
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
    ends = _edge_ends(g)
    weights = g.weights
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

    edges: list[tuple[int, int, float]] = []
    distance = provider.miles
    for i, a in enumerate(sites):
        for j in range(i + 1, len(sites)):
            b = sites[j]
            try:
                miles = float(distance(a, b))
            except DataError:
                raise
            except Exception as exc:
                raise DataError(
                    f"distance provider failed for pair ({a.site_id}, {b.site_id}): {exc}"
                ) from exc
            if miles <= threshold_miles:
                edges.append((i, j, miles))
    return _assemble_graph(sites, edges, threshold_miles, adjacency_weights, sigma_miles)


@dataclass(frozen=True)
class RegionalPartition:
    """A split of a graph into disjoint subgraphs, one per group label.

    ``node_indices`` maps each label to the parent-graph indices of its
    nodes (in parent order): the rows model code takes out of a full
    node-feature matrix to form that group's block.
    """

    strategy: str
    region_of: Mapping[str, str]
    subgraphs: Mapping[str, SiteGraph]
    region_order: tuple[str, ...]
    node_indices: Mapping[str, np.ndarray] = field(repr=False)


def partition_from_assignment(g: SiteGraph, assignment: Mapping[str, str],
                              strategy: str,
                              provider: DistanceProvider | None = None) -> RegionalPartition:
    """The one path from a site-id to label mapping to a partition.

    Labels are ordered by ``sorted``, the order a stored partition is read
    back in. A regional subgraph keeps the parent's edges whose endpoints
    share a label; a random subgraph is complete. A random pair the parent
    links keeps the parent edge's miles, and ``provider`` (haversine when
    not given) measures the others (nodes in parent order). So each node
    lands in its label's group alone, a regional subgraph, holding parent
    edges under the parent's kernel, adds no node degree, and every parent
    edge inside a group is a sub-edge of the same miles.
    """
    if strategy not in ("regional", "random"):
        raise ConfigError(f"partition strategy must be regional or random, got {strategy!r}")
    missing = [s.site_id for s in g.nodes if s.site_id not in assignment]
    if missing:
        raise DataError(f"partition assignment missing sites {missing[:5]}")
    if len(assignment) != g.n:
        raise DataError("partition assignment names sites that are not in the graph")

    label_of = [assignment[s.site_id] for s in g.nodes]
    members: dict[str, list[int]] = {label: [] for label in sorted(set(label_of))}
    local = []
    for i, label in enumerate(label_of):
        local.append(len(members[label]))
        members[label].append(i)
    sub_edges: dict[str, list] = {label: [] for label in members}
    if strategy == "regional":
        for i, j, miles in g.edges:
            if label_of[i] == label_of[j]:
                sub_edges[label_of[i]].append((local[i], local[j], miles))
    linked = {(i, j): miles for i, j, miles in g.edges} if strategy == "random" else {}
    pair_miles = (provider or HaversineProvider()).miles

    subgraphs: dict[str, SiteGraph] = {}
    for label, idx in members.items():
        sub_nodes = [g.nodes[p] for p in idx]
        if strategy == "random":
            sub_edges[label] = [
                (a, b, linked[idx[a], idx[b]] if (idx[a], idx[b]) in linked
                 else float(pair_miles(sub_nodes[a], sub_nodes[b])))
                for a in range(len(idx)) for b in range(a + 1, len(idx))]
        subgraphs[label] = _assemble_graph(sub_nodes, sub_edges[label], g.threshold_miles,
                                           g.adjacency_weights, g.sigma_miles)

    return RegionalPartition(
        strategy=strategy, region_of={s.site_id: label for s, label in zip(g.nodes, label_of)},
        subgraphs=subgraphs, region_order=tuple(members),
        node_indices={label: _freeze(np.array(idx, dtype=np.int64))
                      for label, idx in members.items()})


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
