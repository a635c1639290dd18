"""Versioned binary model checkpoints.

Layout: an 8-byte magic, a little-endian uint64 header length, a compact
JSON header, then the raw weight arrays (float64, little-endian, C order)
concatenated in the order the header lists them. The file holds the
architecture and hyper parameters, feature-scaling constants, the
training week set, the full graph (sites, edges, kernel), and the
partition with its stored edge distances. The grid step and max gap the
model was trained on are not stored: a caller that grids new records
must pass the training config's values. No timestamps, so identical
training runs write identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..errors import ConfigError, DataError
from ..files import atomic_open, json_object, stored
from ..graph.build import (
    UNLINKED_MILES,
    RegionalPartition,
    SiteGraph,
    SiteMeta,
    _assemble_graph,
    partition_from_assignment,
)
from .architectures import ForecastModel, ModelSpec, build_model

__all__ = ["CheckpointBundle", "FORMAT_VERSION", "load_checkpoint", "restore_model",
           "save_checkpoint"]

MAGIC = b"RGCKPT01"
FORMAT_VERSION = 1


def _site_to_row(s: SiteMeta) -> list:
    return [s.site_id, s.region, s.latitude, s.longitude, s.travel_time,
            s.owner, s.amenity_count, s.capacity]


def _typed(value, kinds, what: str):
    """A stored value of one of the JSON types a save writes there; bools are no numbers."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{what} {value!r} is not {' or '.join(k.__name__ for k in kinds)}")
    return value


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


def graph_payload(g: SiteGraph) -> dict:
    return {
        "sites": [_site_to_row(s) for s in g.nodes],
        "edges": [[i, j, miles] for i, j, miles in g.edges],
        "threshold_miles": g.threshold_miles,
        "adjacency_weights": g.adjacency_weights,
        "sigma_miles": g.sigma_miles,
    }


def graph_from_payload(d: dict) -> SiteGraph:
    with stored("graph"):
        nodes = [_site_from_row(row) for row in d["sites"]]
        if not nodes:
            raise DataError("malformed graph: no sites")
        edges = [(int(i), int(j), float(m)) for i, j, m in d["edges"]]
        return _assemble_graph(nodes, edges,
                               _typed(d["threshold_miles"], (int, float), "threshold_miles"),
                               d["adjacency_weights"],
                               _typed(d["sigma_miles"], (int, float), "sigma_miles"))


def partition_payload(p: RegionalPartition) -> dict:
    return {
        "strategy": p.strategy,
        "region_of": dict(p.region_of),
        "subgraph_edges": {
            label: [[sub.nodes[i].site_id, sub.nodes[j].site_id, miles]
                    for i, j, miles in sub.edges]
            for label, sub in p.subgraphs.items()
        },
    }


def partition_from_payload(g: SiteGraph, d: dict) -> RegionalPartition:
    """Rebuild a stored partition; its stored sub-edges must be the rebuilt ones.

    Random subgraphs take their distances from the stored edges, since the
    provider that measured them may not be at hand when loading. A pair they
    leave out has zero kernel weight, which no binary pair has.
    """
    with stored("partition"):
        sub_edges = d["subgraph_edges"]
        miles = {(a, b): float(m) for edges in sub_edges.values() for a, b, m in edges}

        def pair_miles(a, b):
            key = (a.site_id, b.site_id)
            if key in miles or g.adjacency_weights not in UNLINKED_MILES:
                return miles[key]
            return UNLINKED_MILES[g.adjacency_weights]
        part = partition_from_assignment(g, d["region_of"], d["strategy"],
                                         SimpleNamespace(miles=pair_miles))
    if partition_payload(part)["subgraph_edges"] != sub_edges:
        raise DataError(f"partition: stored {part.strategy} sub-edges do not match "
                        f"the ones rebuilt from region_of")
    return part


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
    weight_index = [{"name": name, "shape": list(p.values.shape)}
                    for name, p in named.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": spec.architecture,
        "hyperparams": {
            "hidden": spec.hidden,
            "k": spec.k,
            "horizons": list(spec.horizons),
            "connectivity": spec.connectivity,
            "region_count": spec.region_count,
            "seed": spec.seed,
        },
        "scaling": {"lo": [float(x) for x in scaling_lo],
                    "hi": [float(x) for x in scaling_hi]},
        "train_weeks": list(train_weeks),
        "graph": graph_payload(model.ctx.graph),
        "partition": (partition_payload(model.ctx.partition)
                      if model.ctx.partition is not None else None),
        "weights": weight_index,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name, p in named.items():
            fh.write(np.ascontiguousarray(p.values, dtype="<f8").tobytes())


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
            f"{path}: unsupported checkpoint format {header.get('format_version')}")

    with stored(f"checkpoint header in {path}"):
        hp = header["hyperparams"]
        spec = ModelSpec(
            architecture=header["architecture"],
            hidden=hp["hidden"],
            k=hp["k"],
            horizons=tuple(hp["horizons"]),
            connectivity=hp["connectivity"],
            region_count=hp["region_count"],
            seed=hp["seed"],
        )
        graph = graph_from_payload(header["graph"])
        partition = (partition_from_payload(graph, header["partition"])
                     if header["partition"] is not None else None)

        weights: dict = {}
        offset = start + header_len
        for entry in header["weights"]:
            shape = tuple(entry["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):  # no bool, no float
                raise DataError(f"{path}: weight {entry['name']} has shape {list(shape)}, "
                                f"not a list of non-negative ints")
            count = math.prod(shape)
            end = offset + count * 8
            if end > len(raw):
                raise DataError(f"{path}: truncated checkpoint at weight {entry['name']}")
            arr = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
            weights[entry["name"]] = arr
            offset = end
        if offset != len(raw):
            raise DataError(f"{path}: {len(raw) - offset} trailing bytes after weights")

        return CheckpointBundle(
            spec=spec,
            weights=weights,
            scaling_lo=np.array(header["scaling"]["lo"]),
            scaling_hi=np.array(header["scaling"]["hi"]),
            train_weeks=header["train_weeks"],
            graph=graph,
            partition=partition,
        )


def restore_model(bundle: CheckpointBundle) -> ForecastModel:
    """Rebuild the architecture from a bundle and load its weights."""
    model = build_model(bundle.spec, bundle.graph, bundle.partition)
    model.load_state(bundle.weights)
    return model
