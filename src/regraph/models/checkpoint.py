"""Versioned binary model checkpoints.

Layout: an 8-byte magic, a little-endian uint64 header length, a compact
JSON header, then little-endian arrays in the order the header lists them:
the graph's edge columns i, j (int64) and miles (float64), a random
partition's pair columns in the same form, and the weights (float64, C
order). The header holds the model's ``ModelSpec`` (its architecture, and
exactly its other fields under ``hyperparams``), feature-scaling
constants, the training week set, the graph (sites, kernel, and each edge
column's length) and the partition as a graph file stores it, with column
lengths for columns. The spec's fields include the grid step and max gap
the model was trained on, so a reader grids new records as training did.
No timestamps, so identical training runs write identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from ..data.windows import week_spec
from ..errors import ConfigError, DataError
from ..files import atomic_open, json_object, stored
from ..graph.build import (
    RegionalPartition,
    SiteGraph,
    SiteMeta,
    _assemble_graph,
    _edge_columns,
    _partition,
)
from .architectures import IN_WIDTH, ForecastModel, ModelSpec, build_model

__all__ = ["CheckpointBundle", "FORMAT_VERSION", "load_checkpoint", "restore_model",
           "save_checkpoint"]

MAGIC = b"RGCKPT01"
FORMAT_VERSION = 4
# the header stores the architecture on its own and ModelSpec's other fields here
_HYPERPARAMS = sorted(f.name for f in fields(ModelSpec) if f.name != "architecture")
# Edge and pair columns, in stored order, with their binary dtypes.
_COLUMNS = {"i": "<i8", "j": "<i8", "miles": "<f8"}


def _site_to_row(s: SiteMeta) -> list:
    return [s.site_id, s.region, s.latitude, s.longitude, s.travel_time,
            s.owner, s.amenity_count, s.capacity]


def _typed(value, kinds, what: str):
    """A stored value of one of the JSON types a save writes there; bools are no numbers."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{what} {value!r} is not {' or '.join(k.__name__ for k in kinds)}")
    return value


def _scaling_row(values, what: str) -> np.ndarray:
    """A stored row of per-column scaling bounds: one finite number per input column."""
    if len(_typed(values, (list,), what)) != IN_WIDTH:
        raise DataError(f"{what} holds {len(values)} entries, not one per input column "
                        f"({IN_WIDTH})")
    row = np.array([_typed(x, (int, float), what) for x in values], dtype=float)
    if not np.isfinite(row).all():
        raise DataError(f"{what} {values} is not finite")
    return row


def _site_from_row(row) -> SiteMeta:
    site_id, region, lat, lon, travel, owner, amenities, capacity = row
    return SiteMeta(site_id=_typed(site_id, (str,), "site_id"),
                    region=_typed(region, (str,), "region"),
                    latitude=_typed(lat, (int, float), "latitude"),
                    longitude=_typed(lon, (int, float), "longitude"),
                    travel_time=_typed(travel, (int, float), "travel_time"),
                    owner=_typed(owner, (int,), "owner"),
                    amenity_count=_typed(amenities, (int,), "amenity_count"),
                    capacity=_typed(capacity, (int,), "capacity"))


# A column's stored form, from its array and name (without one, a graph file's
# JSON array), and the column back from that form (without one, as it is).
Column = Callable[[object, str], object] | None


def _columns_payload(ends: np.ndarray, miles: np.ndarray, column: Column) -> dict:
    return {name: column(arr, name) if column else arr.tolist()
            for name, arr in zip(_COLUMNS, (ends[:, 0], ends[:, 1], miles))}


def _stored_columns(d: dict, column: Column) -> list:
    """The i, j and miles columns of a stored entry, read in stored order."""
    if not isinstance(d, dict):  # format 1 listed (i, j, miles) triples
        raise DataError(f"stored edges are a {type(d).__name__}, not the columns i, j and "
                        "miles of format 2")  # format 2 made the edges columns
    return [column(d[name], name) if column else d[name] for name in _COLUMNS]


def graph_payload(g: SiteGraph, column: Column = None) -> dict:
    """The graph as a file stores it; ``column`` gives each edge column's stored form."""
    return {
        "sites": [_site_to_row(s) for s in g.nodes],
        "edges": _columns_payload(g.ends, g.miles, column),
        "threshold_miles": g.threshold_miles,
        "adjacency_weights": g.adjacency_weights,
        "sigma_miles": g.sigma_miles,
    }


def graph_from_payload(d: dict, column: Column = None) -> SiteGraph:
    """The graph a graph file stores, or a checkpoint header with ``column``
    reading each edge column from the file's binary part."""
    with stored("graph"):
        nodes = [_site_from_row(row) for row in d["sites"]]
        if not nodes:
            raise DataError("malformed graph: no sites")
        return _assemble_graph(nodes, *_stored_columns(d["edges"], column),
                               _typed(d["threshold_miles"], (int, float), "threshold_miles"),
                               d["adjacency_weights"],
                               _typed(d["sigma_miles"], (int, float), "sigma_miles"))


def partition_payload(p: RegionalPartition, column: Column = None) -> dict:
    """The partition as a file stores it: its strategy, each site's label and,
    for a random partition, the ``pairs`` columns."""
    doc = {"strategy": p.strategy, "region_of": dict(p.region_of)}
    if p.pairs is not None:
        doc["pairs"] = _columns_payload(*p.pairs, column)
    return doc


def _pair_miles(g: SiteGraph, ends: np.ndarray, stored_ends: np.ndarray,
                stored_miles: np.ndarray) -> np.ndarray:
    """The stored miles of the pairs ``ends``, which the stored pairs must be,
    in order; else a DataError naming the first pair that differs."""
    if not np.array_equal(stored_ends, ends):
        same = min(len(ends), len(stored_ends))
        differ = np.flatnonzero(np.any(stored_ends[:same] != ends[:same], axis=1))
        k = differ[0] if differ.size else same

        def pair(e: np.ndarray) -> str:
            return f"({g.nodes[e[k, 0]].site_id}, {g.nodes[e[k, 1]].site_id})" \
                if k < len(e) else "none"
        raise DataError(f"partition: stored pair {k} is {pair(stored_ends)}, where the "
                        f"labels give {pair(ends)}")
    return stored_miles


def partition_from_payload(g: SiteGraph, d: dict,
                           column: Column = None) -> RegionalPartition:
    """Rebuild a stored partition from its strategy and labels.

    A random partition's groups take the distances of their pairs the
    graph does not link from its stored ``pairs``, since the provider that
    measured them may not be at hand when loading; those must be exactly
    the pairs the labels give. Their miles have nothing to be checked
    against but being finite.
    """
    with stored("partition"):
        def stored_miles(ends: np.ndarray) -> np.ndarray:
            columns = _stored_columns(d["pairs"], column)
            return _pair_miles(g, ends, *_edge_columns(*columns, g.n, "partition pair"))
        return _partition(g, d["region_of"], d["strategy"], stored_miles)


def read_graph_document(doc: dict, what: str, column: Column = None
                        ) -> tuple[SiteGraph, RegionalPartition | None]:
    """The graph and partition (both required; ``null`` is none) a graph file
    or checkpoint header stores."""
    for key in ("graph", "partition"):
        if key not in doc:
            raise DataError(f"{what} is missing the '{key}' entry")
    graph = graph_from_payload(doc["graph"], column)
    if doc["partition"] is None:
        return graph, None
    return graph, partition_from_payload(graph, doc["partition"], column)


@dataclass(frozen=True)
class CheckpointBundle:
    spec: ModelSpec
    weights: dict
    scaling_lo: np.ndarray
    scaling_hi: np.ndarray
    train_weeks: list
    graph: SiteGraph
    partition: RegionalPartition | None


def save_checkpoint(path: str | Path, model: ForecastModel,
                    scaling_lo: np.ndarray, scaling_hi: np.ndarray,
                    train_weeks: list) -> None:
    """Write the model, its graph context, and the data constants."""
    path = Path(path)
    spec = model.spec
    named = model.named_params()
    columns = []

    def length(arr: np.ndarray, name: str) -> int:
        columns.append(arr.astype(_COLUMNS[name]))
        return len(arr)
    weight_index = [{"name": name, "shape": list(p.values.shape)}
                    for name, p in named.items()]
    hyperparams = asdict(spec)
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": hyperparams.pop("architecture"),
        "hyperparams": hyperparams,
        "scaling": {"lo": [float(x) for x in scaling_lo],
                    "hi": [float(x) for x in scaling_hi]},
        "train_weeks": list(train_weeks),
        "graph": graph_payload(model.ctx.graph, length),
        "partition": (partition_payload(model.ctx.partition, length)
                      if model.ctx.partition is not None else None),
        "weights": weight_index,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in columns:
            fh.write(arr)
        for p in named.values():
            fh.write(np.ascontiguousarray(p.values, dtype="<f8"))


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 8 or raw[:len(MAGIC)] != MAGIC:
        raise DataError(f"{path} is not a model checkpoint (bad magic)")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    header = json_object(raw[start:start + header_len], f"{path}: corrupt checkpoint header")
    if header.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"{path}: unsupported checkpoint format {header.get('format_version')}; "
            f"this version reads format {FORMAT_VERSION}")
    offset = start + header_len

    def take(shape: list, dtype: str, what: str) -> np.ndarray:
        """The next stored array of ``shape``, a view into the file's bytes."""
        nonlocal offset
        if not all(type(d) is int and d >= 0 for d in shape):  # no bool, no float
            raise DataError(f"{path}: {what} has shape {shape}, not a list of non-negative ints")
        count = math.prod(shape)
        if offset + 8 * count > len(raw):
            raise DataError(f"{path}: truncated checkpoint at {what}")
        offset += 8 * count
        return np.frombuffer(raw, dtype, count, offset - 8 * count).reshape(shape)

    with stored(f"checkpoint header in {path}"):
        hp = header["hyperparams"]
        if sorted(hp) != _HYPERPARAMS:
            raise DataError(f"{path}: checkpoint hyperparams hold {sorted(hp)}, "
                            f"not {_HYPERPARAMS}")
        spec = ModelSpec(architecture=header["architecture"], **hp)
        graph, partition = read_graph_document(
            header, f"checkpoint header in {path}",
            lambda length, name: take([length], _COLUMNS[name], f"column {name}"))
        weights = {entry["name"]: take(list(entry["shape"]), "<f8",
                                       f"weight {entry['name']}").copy()
                   for entry in header["weights"]}
        if offset != len(raw):
            raise DataError(f"{path}: {len(raw) - offset} trailing bytes after weights")

        train_weeks = _typed(header["train_weeks"], (list,), "train_weeks")
        for week in train_weeks:  # each a week split_by_weeks reads, as generality compares
            week_spec(_typed(week, (str, int), "train week"))
        return CheckpointBundle(
            spec=spec,
            weights=weights,
            scaling_lo=_scaling_row(header["scaling"]["lo"], "scaling lo"),
            scaling_hi=_scaling_row(header["scaling"]["hi"], "scaling hi"),
            train_weeks=train_weeks,
            graph=graph,
            partition=partition,
        )


def restore_model(bundle: CheckpointBundle) -> ForecastModel:
    """Rebuild the architecture from a bundle with its weights; none are drawn.

    Weights that do not fit the stored spec (a name missing or extra, a
    shape off) are a malformed checkpoint: a DataError.
    """
    with stored("checkpoint"):
        return build_model(bundle.spec, bundle.graph, bundle.partition, bundle.weights)
