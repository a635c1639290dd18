"""Site graphs, normalized adjacency operators, and decompositions.

A graph connects parking sites whose pairwise distance is at or below a
threshold (default 40 miles, roughly a 30-minute drive). Raw miles are kept
on the edges; the adjacency matrix applies a configurable kernel on top,
and the propagation operator is the symmetric normalization of A plus
self-loops. Two decompositions split the graph into independent blocks:
one per state label, and one into seeded random groups that are fully
connected internally.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, DataError
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
    "load_sites",
    "overlap_cost",
    "partition_from_assignment",
]

SITES_HEADER = ["site_id", "region", "lat", "lon", "travel_time_min",
                "owner", "amenities", "capacity"]

ADJACENCY_KERNELS = ("gaussian", "binary", "raw")


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

    def __post_init__(self):
        if not self.site_id:
            raise DataError("site: empty site_id")
        if not -90.0 <= self.latitude <= 90.0:
            raise DataError(f"site {self.site_id}: latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise DataError(f"site {self.site_id}: longitude {self.longitude} outside [-180, 180]")
        if self.owner not in (0, 1):
            raise DataError(f"site {self.site_id}: owner must be 0 (private) or 1 (public)")
        if self.amenity_count < 0:
            raise DataError(f"site {self.site_id}: negative amenity count")
        if self.capacity < 1:
            raise DataError(f"site {self.site_id}: capacity must be >= 1")


def load_sites(path: str | Path) -> list[SiteMeta]:
    """Read the sites CSV (columns: site_id,region,lat,lon,travel_time_min,owner,amenities,capacity)."""
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open sites file {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != SITES_HEADER:
            raise DataError(
                f"sites file {path}: expected header {','.join(SITES_HEADER)}, "
                f"got {reader.fieldnames}"
            )
        sites: list[SiteMeta] = []
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            try:
                site = SiteMeta(
                    site_id=row["site_id"],
                    region=row["region"],
                    latitude=float(row["lat"]),
                    longitude=float(row["lon"]),
                    travel_time=float(row["travel_time_min"]),
                    owner=int(row["owner"]),
                    amenity_count=int(row["amenities"]),
                    capacity=int(row["capacity"]),
                )
            except (TypeError, ValueError) as exc:
                raise DataError(f"sites file {path} line {lineno}: {exc}") from exc
            if site.site_id in seen:
                raise DataError(f"sites file {path} line {lineno}: duplicate site_id {site.site_id}")
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


def _normalized_operator(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrically normalized adjacency with self-loops: D^-1/2 (A+I) D^-1/2."""
    a_hat = adjacency + np.eye(adjacency.shape[0])
    d = np.sum(a_hat, axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    # Scale by a symmetric outer product so the result is exactly symmetric.
    return a_hat * np.outer(inv_sqrt, inv_sqrt)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SiteGraph:
    """An undirected site graph and its propagation operator.

    ``edges`` holds (i, j, miles) with i < j; ``adjacency`` applies the
    configured kernel to those miles; ``normalized`` is the symmetric
    normalization with self-loops added. Arrays are read-only.
    """

    nodes: tuple[SiteMeta, ...]
    edges: tuple[tuple[int, int, float], ...]
    adjacency: np.ndarray
    normalized: np.ndarray
    threshold_miles: float
    adjacency_weights: str
    sigma_miles: float

    @property
    def n(self) -> int:
        return len(self.nodes)


def _assemble_graph(nodes: Sequence[SiteMeta], edges: Sequence[tuple[int, int, float]],
                    threshold: float, kernel: str, sigma: float) -> SiteGraph:
    n = len(nodes)
    adjacency = np.zeros((n, n))
    for i, j, miles in edges:
        w = _kernel_weight(miles, kernel, sigma)
        adjacency[i, j] = w
        adjacency[j, i] = w
    normalized = _normalized_operator(adjacency)
    return SiteGraph(
        nodes=tuple(nodes),
        edges=tuple(sorted(edges)),
        adjacency=_freeze(adjacency),
        normalized=_freeze(normalized),
        threshold_miles=threshold,
        adjacency_weights=kernel,
        sigma_miles=sigma,
    )


def build_connected(sites: Sequence[SiteMeta], provider: DistanceProvider | None = None,
                    threshold_miles: float = 40.0, adjacency_weights: str = "gaussian",
                    sigma_miles: float = 20.0) -> SiteGraph:
    """Connect every pair of sites within the distance threshold."""
    if not sites:
        raise DataError("build_connected: no sites")
    if threshold_miles <= 0:
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
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            try:
                miles = float(provider.miles(sites[i], sites[j]))
            except DataError:
                raise
            except Exception as exc:
                raise DataError(
                    f"distance provider failed for pair ({sites[i].site_id}, "
                    f"{sites[j].site_id}): {exc}") from exc
            if miles <= threshold_miles:
                edges.append((i, j, miles))
    return _assemble_graph(sites, edges, threshold_miles, adjacency_weights, sigma_miles)


@dataclass(frozen=True)
class RegionalPartition:
    """A split of a graph into disjoint subgraphs, one per group label.

    ``node_indices`` maps each label to the parent-graph indices of its
    nodes (in parent order), which lets model code gather and scatter
    between the full node list and per-group blocks.
    """

    strategy: str
    region_of: Mapping[str, str]
    subgraphs: Mapping[str, SiteGraph]
    region_order: tuple[str, ...]
    node_indices: Mapping[str, np.ndarray] = field(repr=False)


def _check_partition(parent: SiteGraph, part: RegionalPartition) -> None:
    all_ids: list[str] = []
    for label in part.region_order:
        all_ids.extend(s.site_id for s in part.subgraphs[label].nodes)
    parent_ids = [s.site_id for s in parent.nodes]
    if sorted(all_ids) != sorted(parent_ids):
        raise DataError("partition: subgraph node sets are not a partition of the graph")
    if part.strategy == "regional":
        parent_degrees = _degrees(parent)
        for label in part.region_order:
            sub = part.subgraphs[label]
            gained = np.flatnonzero(_degrees(sub) > parent_degrees[part.node_indices[label]])
            if gained.size:
                raise DataError(f"partition: node {sub.nodes[gained[0]].site_id} "
                                f"gained degree in region {label}")


def _build_partition(g: SiteGraph, strategy: str, assignment: Mapping[str, str],
                     pair_miles: Callable[[SiteMeta, SiteMeta], float] | None = None
                     ) -> RegionalPartition:
    """The one path from a site-id to label mapping to a checked partition.

    Labels are ordered by ``sorted``, the order a stored partition is read
    back in. A regional subgraph keeps the parent's edges whose endpoints
    share a label; a random subgraph is complete, with ``pair_miles``
    giving each pair's distance (nodes in parent order).
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

    subgraphs: dict[str, SiteGraph] = {}
    for label, idx in members.items():
        sub_nodes = [g.nodes[p] for p in idx]
        if strategy == "random":
            sub_edges[label] = [(a, b, float(pair_miles(sub_nodes[a], sub_nodes[b])))
                                for a in range(len(idx)) for b in range(a + 1, len(idx))]
        subgraphs[label] = _assemble_graph(sub_nodes, sub_edges[label], g.threshold_miles,
                                           g.adjacency_weights, g.sigma_miles)

    part = RegionalPartition(
        strategy=strategy, region_of={s.site_id: label for s, label in zip(g.nodes, label_of)},
        subgraphs=subgraphs, region_order=tuple(members),
        node_indices={label: _freeze(np.array(idx, dtype=np.int64))
                      for label, idx in members.items()})
    _check_partition(g, part)
    return part


def decompose_regional(g: SiteGraph) -> RegionalPartition:
    """One subgraph per state label; only intra-region edges survive."""
    for s in g.nodes:
        if not s.region:
            raise DataError(f"decompose_regional: site {s.site_id} has no region label")
    return _build_partition(g, "regional", {s.site_id: s.region for s in g.nodes})


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
    order = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, r)
    group = np.repeat(np.arange(r), [base + (1 if k < extra else 0) for k in range(r)])
    assignment = {g.nodes[int(p)].site_id: f"group_{k}" for p, k in zip(order, group)}
    return _build_partition(g, "random", assignment, (provider or HaversineProvider()).miles)


def partition_from_assignment(g: SiteGraph, assignment: Mapping[str, str],
                              strategy: str,
                              provider: DistanceProvider | None = None) -> RegionalPartition:
    """Rebuild a partition from an explicit site-id to label mapping.

    Regional strategy keeps the parent's intra-label edges; random strategy
    connects every pair inside a label (distances from ``provider``). This
    reproduces a previously computed partition without its seed, e.g. when
    loading a stored model.
    """
    return _build_partition(g, strategy, assignment,
                            (provider or HaversineProvider()).miles)


def degree(g: SiteGraph, i: int) -> int:
    """Count of neighbors of node i (positive off-diagonal entries in row i)."""
    if not 0 <= i < g.n:
        raise IndexError(f"degree: node index {i} out of range for {g.n} nodes")
    row = g.adjacency[i]
    return int(np.count_nonzero(row > 0)) - (1 if row[i] > 0 else 0)


def _degrees(g: SiteGraph) -> np.ndarray:
    """``degree`` of every node at once."""
    linked = g.adjacency > 0
    return linked.sum(axis=1) - linked.diagonal()


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
