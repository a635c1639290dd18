"""The six forecasting architectures and their shared graph context.

Every model maps a window of K grid steps (n sites x 8 features each) to one
prediction matrix of n sites x |horizons| occupancy rates. Graph inputs
enter as fixed constants; all learnable weights are node-shared, which is
what makes the models permutation-equivariant.

Architectures:
    StackedGRU  two plain GRU layers over the lag sequence, no graph
    StackedGCN  two graph convolutions over the lag-concatenated features
    TGCN        structural conv -> GRU -> attention over lags -> decoder
    CSTGCN      five chained structural convs feeding the GRU
    RanTGCN     TGCN plus a per-group embedding path (random partition)
    RegTGCN     TGCN plus a per-region embedding path (state partition)

The partition path ("gamma"): each subgraph runs its own graph conv on its
nodes' rows, written straight back to those rows (one ``segment_gcn`` op),
and one shared per-node affine mixes them. The GRU of
the partition models consumes the feature concatenation of the full-graph
conv and gamma, and its hidden state starts from the oldest lag's gamma
rather than zeros.

Every model runs in two stages: ``encode`` reads scaled grid steps stacked
row-wise, and ``advance`` takes one more lag of a window from those rows.
The encode holds everything that depends on the step alone: in the T-GCN
models the spatial convs, gamma and the input halves of the GRU gates, in
StackedGRU the input halves of its first cell's gates. StackedGCN, which
reads all lags at once, keeps the steps as they are. Training encodes a
window's K steps as one stack, so each of those layers is one wide product
on the tape; frozen inference over windows that share steps
(``predict_windows``) encodes each step once, on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.frames import FEATURE_COLUMNS
from ..errors import ConfigError, ShapeError
from ..graph.build import RegionalPartition, SiteGraph, dense_operator, neighbor_lists
from ..numerics import DiffTensor, concat, constant, gru_update, no_grad, segment_gcn, take_rows
# gru_step and attention_aggregate are not called here, but perfbench's layer
# tracer wraps them where this module looks them up.
from .layers import (  # noqa: F401
    AttentionAggregator,
    Decoder,
    GcnGruCell,
    GcnLayer,
    StructuralConv,
    affine,
    attend,
    attention_aggregate,
    gate_inputs,
    gcn_forward,
    gru_step,
    lag_weights,
    split_gates,
    structural_conv,
    uniform_init,
)

__all__ = [
    "ARCHITECTURES",
    "IN_WIDTH",
    "ForecastModel",
    "GraphContext",
    "ModelSpec",
    "build_model",
]

IN_WIDTH = len(FEATURE_COLUMNS)

ARCHITECTURES = ("StackedGRU", "StackedGCN", "TGCN", "CSTGCN", "RanTGCN", "RegTGCN")

CONNECTIVITY_OF = {
    "StackedGRU": "connected",
    "StackedGCN": "connected",
    "TGCN": "connected",
    "CSTGCN": "connected",
    "RanTGCN": "random",
    "RegTGCN": "regional",
}

CST_DEPTH = 5


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    hidden: int
    k: int
    horizons: tuple[int, ...]
    connectivity: str
    region_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(
                f"unknown architecture {self.architecture!r}; pick from {ARCHITECTURES}")
        if self.hidden < 1:
            raise ConfigError(f"hidden size must be >= 1, got {self.hidden}")
        if self.k < 1:
            raise ConfigError(f"window length k must be >= 1, got {self.k}")
        horizons = tuple(self.horizons)
        if not horizons or any(h < 1 for h in horizons):
            raise ConfigError(f"horizons must be positive steps, got {horizons}")
        if list(horizons) != sorted(set(horizons)):
            raise ConfigError(f"horizons must be strictly increasing, got {horizons}")
        object.__setattr__(self, "horizons", horizons)
        expected = CONNECTIVITY_OF[self.architecture]
        if self.connectivity != expected:
            raise ConfigError(
                f"{self.architecture} requires connectivity={expected!r}, "
                f"got {self.connectivity!r}")
        if self.connectivity == "random":
            if self.region_count is None or self.region_count < 1:
                raise ConfigError("random connectivity needs region_count >= 1")
        elif self.region_count is not None:
            raise ConfigError("region_count only applies to random connectivity")

    @property
    def n_horizons(self) -> int:
        return len(self.horizons)


class GraphContext:
    """Frozen graph operators shared by a model's forward passes.

    Holds ``operator``, the one full-graph operator its model multiplies
    by: for the kind ``neighbors`` the binary adjacency as the neighbor
    lists of ``neighbor_lists``, with no n x n array; for ``binary`` or
    ``normalized`` the dense n x n ``dense_operator`` of that kind; or
    None. When a partition is attached it also holds each subgraph's dense
    normalized operator and ``groups``: each subgraph's rows in global
    order (the partition's ``node_indices``), in region order.
    """

    def __init__(self, graph: SiteGraph, operator: str | None,
                 partition: RegionalPartition | None = None):
        self.graph = graph
        self.partition = partition
        self.n = graph.n
        if operator == "neighbors":
            self.operator = neighbor_lists(graph)
        else:
            self.operator = None if operator is None else constant(dense_operator(graph, operator))

        self.region_order: tuple[str, ...] = ()
        self.sub_normalized: dict[str, DiffTensor] = {}
        self.groups: tuple[np.ndarray, ...] = ()
        if partition is not None:
            self.region_order = tuple(partition.region_order)
            self.groups = tuple(partition.node_indices[label] for label in self.region_order)
            if not np.array_equal(np.sort(np.concatenate(self.groups)), np.arange(graph.n)):
                raise ConfigError("partition does not cover the graph's nodes exactly")
            self.sub_normalized = {
                label: constant(dense_operator(partition.subgraphs[label], "normalized"))
                for label in self.region_order}


class ForecastModel:
    """Shared parameter registry, the two-stage forward, and frozen inference.

    A subclass defines ``readout`` and may refine ``call_weights``,
    ``encode`` and ``advance``; by default a step is encoded as itself and
    a window's state is the tuple of its encoded steps.
    """

    operator_kind: str | None = None  # the full-graph operator its context builds

    def __init__(self, spec: ModelSpec, ctx: GraphContext):
        self.spec = spec
        self.ctx = ctx
        self._named: list[tuple[str, DiffTensor]] = []

    def _register(self, prefix: str, layer) -> None:
        for name, p in layer.params():
            self._named.append((f"{prefix}.{name}", p))

    def _register_param(self, name: str, p: DiffTensor) -> None:
        self._named.append((name, p))

    def named_params(self) -> dict[str, DiffTensor]:
        return dict(self._named)

    def params(self) -> list[DiffTensor]:
        return [p for _, p in self._named]

    def load_state(self, arrays) -> None:
        names = [name for name, _ in self._named]
        missing = [n for n in names if n not in arrays]
        extra = [n for n in arrays if n not in names]
        if missing or extra:
            raise ConfigError(
                f"weight set mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for name, p in self._named:
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.values.shape:
                raise ShapeError(
                    f"weight {name}: stored shape {arr.shape} != model shape {p.values.shape}")
            p.values = arr.copy()

    def _check_window(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != (self.spec.k, self.ctx.n, IN_WIDTH):
            raise ShapeError(
                f"window shape {inputs.shape} does not match "
                f"(k={self.spec.k}, n={self.ctx.n}, {IN_WIDTH})")
        return inputs

    def call_weights(self):
        """The weights as every step of one call reads them, taken once per call."""
        return None

    def encode(self, weights, x: DiffTensor):
        """Scaled grid steps stacked row-wise (m*n x 8), as every window
        holding them reads them."""
        return x

    def advance(self, weights, state, encoded, rows: slice):
        """A window's state after one more lag, the step at ``rows`` of
        ``encoded``; ``state`` is None before the first."""
        return (state or ()) + (take_rows(encoded, rows),)

    def readout(self, weights, state) -> DiffTensor:
        """The n x |horizons| forecast of a window that has taken all K lags."""
        raise NotImplementedError

    def forward(self, inputs: np.ndarray) -> DiffTensor:
        """The taped forecast of one window, its K steps encoded as one stack."""
        inputs = self._check_window(inputs)
        k, n = self.spec.k, self.ctx.n
        weights = self.call_weights()
        encoded = self.encode(weights, constant(inputs.reshape(k * n, IN_WIDTH)))
        state = None
        for lag in range(k):
            state = self.advance(weights, state, encoded, slice(lag * n, (lag + 1) * n))
        return self.readout(weights, state)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self.predict_windows(np.arange(self.spec.k)[None], lambda b: inputs)[0]

    def predict_windows(self, positions: np.ndarray,
                        inputs: Callable[[int], np.ndarray]) -> np.ndarray:
        """Frozen forecasts of B windows, taken grid step by grid step.

        ``positions`` (B x K) numbers each window's steps, rising along the
        lags; windows holding the same step give it the same number (see
        ``data.step_positions``). ``inputs(b)`` returns window b's scaled
        K x n x 8 inputs. It is called when the window's first step comes
        up, and the array is dropped after its last. Each step is encoded
        once and at once advances every window holding it, so only the
        windows spanning one step are in flight, each with its own state.
        Returns the B x n x |horizons| forecasts, one row per window.
        """
        positions = np.asarray(positions)
        k = self.spec.k
        if positions.ndim != 2 or positions.shape[1] != k \
                or np.any(np.diff(positions, axis=1) <= 0):
            raise ShapeError(f"predict_windows: expected B x {k} rising step numbers, "
                             f"got shape {positions.shape}")
        holders: dict[int, list[tuple[int, int]]] = {}
        for b, row in enumerate(positions.tolist()):
            for lag, p in enumerate(row):
                holders.setdefault(p, []).append((b, lag))
        out = np.empty((len(positions), self.ctx.n, self.spec.n_horizons))
        windows: dict[int, np.ndarray] = {}
        states: dict[int, object] = {}
        with no_grad():
            weights = self.call_weights()
            for p in sorted(holders):
                takers = holders[p]
                for b, lag in takers:
                    if lag == 0:
                        windows[b] = self._check_window(inputs(b))
                b, lag = takers[0]
                step = self.encode(weights, constant(windows[b][lag]))
                for b, lag in takers:
                    states[b] = self.advance(weights, states.get(b), step, slice(None))
                    if lag == k - 1:
                        out[b] = self.readout(weights, states.pop(b)).values
                        del windows[b]
        return out


class StackedGru(ForecastModel):
    """Two GRU layers over the lag sequence; adjacency never enters.

    Encoded steps are the first cell's gate input halves; a window in flight
    is (h1, h2), both starting from the all-zero state.
    """

    def __init__(self, spec: ModelSpec, ctx: GraphContext):
        super().__init__(spec, ctx)
        rng = np.random.default_rng(spec.seed)
        self.cell1 = GcnGruCell(rng, IN_WIDTH, spec.hidden)
        self.cell2 = GcnGruCell(rng, spec.hidden, spec.hidden)
        self.decoder = Decoder(rng, spec.hidden, spec.hidden, spec.n_horizons)
        self._register("gru1", self.cell1)
        self._register("gru2", self.cell2)
        self._register("decoder", self.decoder)

    def call_weights(self):
        return split_gates(self.cell1), split_gates(self.cell2)

    def encode(self, weights, x: DiffTensor):
        return gate_inputs(weights[0], x)

    def advance(self, weights, state, encoded, rows):
        h1, h2 = state or (None, None)
        h1 = gru_update(encoded, rows, h1, weights[0][1])
        h2 = gru_update(gate_inputs(weights[1], h1), slice(None), h2, weights[1][1])
        return h1, h2

    def readout(self, weights, state) -> DiffTensor:
        return self.decoder.forward(state[1])


class StackedGcn(ForecastModel):
    """Two graph convolutions over the feature concatenation of all lags."""

    operator_kind = "normalized"

    def __init__(self, spec: ModelSpec, ctx: GraphContext):
        super().__init__(spec, ctx)
        rng = np.random.default_rng(spec.seed)
        self.layer1 = GcnLayer(rng, IN_WIDTH * spec.k, spec.hidden)
        self.layer2 = GcnLayer(rng, spec.hidden, spec.hidden)
        self.decoder = Decoder(rng, spec.hidden, spec.hidden, spec.n_horizons)
        self._register("gcn1", self.layer1)
        self._register("gcn2", self.layer2)
        self._register("decoder", self.decoder)

    def readout(self, weights, steps) -> DiffTensor:
        stacked = concat(list(steps), axis=1)
        g1 = gcn_forward(self.layer1, self.ctx.operator, stacked)
        g2 = gcn_forward(self.layer2, self.ctx.operator, g1)
        return self.decoder.forward(g2)


class _GruAttention(ForecastModel):
    """The T-GCN recurrence: a GRU over the encoded steps, attention over its
    K hidden states as a running sum, then the decoder.

    Subclasses give ``_gru_input``: the GRU input block of stacked steps,
    and their gamma or None. Encoded steps are (the gates' input halves,
    gamma); a lag reads its step's rows of them. Gamma seeds h at a
    window's oldest lag, and None seeds the all-zero state. A window in
    flight is (h, attention sum, lags taken).
    """

    # The one structural conv multiplies the 8-wide model input, which
    # neighbor lists sum without an n x n array.
    operator_kind = "neighbors"

    def _gru_input(self, x: DiffTensor) -> tuple[DiffTensor, DiffTensor | None]:
        raise NotImplementedError

    def call_weights(self):
        return split_gates(self.cell), lag_weights(self.attention)

    def encode(self, weights, x: DiffTensor):
        conv_in, gamma = self._gru_input(x)
        return gate_inputs(weights[0], conv_in), gamma

    def advance(self, weights, state, encoded, rows):
        gate_x, gamma = encoded
        if state is None:
            state = (None if gamma is None else take_rows(gamma, rows), None, 0)
        h, total, lag = state
        h = gru_update(gate_x, rows, h, weights[0][1])
        return h, attend(weights[1], lag, h, total), lag + 1

    def readout(self, weights, state) -> DiffTensor:
        return self.decoder.forward(state[1])


class TGcn(_GruAttention):
    """Structural conv into a GRU, attention over the K hidden states."""

    conv_depth = 1

    def __init__(self, spec: ModelSpec, ctx: GraphContext):
        super().__init__(spec, ctx)
        rng = np.random.default_rng(spec.seed)
        self.convs = [StructuralConv(rng, IN_WIDTH, spec.hidden)]
        for _ in range(self.conv_depth - 1):
            self.convs.append(StructuralConv(rng, spec.hidden, spec.hidden))
        self.cell = GcnGruCell(rng, spec.hidden, spec.hidden)
        self.attention = AttentionAggregator(rng, spec.k)
        self.decoder = Decoder(rng, spec.hidden, spec.hidden, spec.n_horizons)
        for d, conv in enumerate(self.convs):
            self._register(f"conv{d}", conv)
        self._register("gru", self.cell)
        self._register("attention", self.attention)
        self._register("decoder", self.decoder)

    def _gru_input(self, x: DiffTensor) -> tuple[DiffTensor, None]:
        out = x
        for conv in self.convs:
            out = structural_conv(conv, self.ctx.operator, out)
        return out, None


class CstGcn(TGcn):
    """TGcn with a five-deep structural conv chain."""

    conv_depth = CST_DEPTH
    # The deeper convs multiply hidden-wide taped features, where dense BLAS
    # is many times faster than summing neighbor lists.
    operator_kind = "binary"


class PartitionedTGcn(_GruAttention):
    """TGcn plus the per-group embedding path (gamma).

    Per step, the full-graph structural conv and the mixed per-group
    embeddings are concatenated feature-wise as the GRU input. The hidden
    state is seeded with the oldest lag's gamma.
    """

    strategy = "regional"
    group_prefix = "regional"

    def __init__(self, spec: ModelSpec, ctx: GraphContext):
        super().__init__(spec, ctx)
        if ctx.partition is None or ctx.partition.strategy != self.strategy:
            raise ConfigError(
                f"{spec.architecture} needs a {self.strategy} partition in its graph context")
        rng = np.random.default_rng(spec.seed)
        h = spec.hidden
        self.structural = StructuralConv(rng, IN_WIDTH, h)
        self.region_layers: dict[str, GcnLayer] = {
            label: GcnLayer(rng, IN_WIDTH, h) for label in ctx.region_order}
        self.mixer_w = uniform_init(rng, (h, h), h)
        self.mixer_b = uniform_init(rng, (1, h), h)
        self.cell = GcnGruCell(rng, 2 * h, h)
        self.attention = AttentionAggregator(rng, spec.k)
        self.decoder = Decoder(rng, h, h, spec.n_horizons)

        self._register("structural", self.structural)
        for label in ctx.region_order:
            self._register(f"{self.group_prefix}.{label}", self.region_layers[label])
        self._register_param("mixer.w", self.mixer_w)
        self._register_param("mixer.b", self.mixer_b)
        self._register("gru", self.cell)
        self._register("attention", self.attention)
        self._register("decoder", self.decoder)

    def regional_embedding(self, x: DiffTensor) -> DiffTensor:
        """Per-group conv of stacked steps in global row order, shared affine mix."""
        ctx = self.ctx
        layers = [self.region_layers[label] for label in ctx.region_order]
        placed = segment_gcn(x, ctx.groups,
                             [ctx.sub_normalized[label].values for label in ctx.region_order],
                             [layer.w for layer in layers], [layer.b for layer in layers])
        return affine(placed, self.mixer_w, self.mixer_b)

    def _gru_input(self, x: DiffTensor) -> tuple[DiffTensor, DiffTensor]:
        gamma = self.regional_embedding(x)
        structural = structural_conv(self.structural, self.ctx.operator, x)
        return concat([structural, gamma], axis=1), gamma


class RegTGcn(PartitionedTGcn):
    """PartitionedTGcn over the regional partition: the paper's RegT-GCN."""


class RanTGcn(PartitionedTGcn):
    strategy = "random"
    group_prefix = "group"


_MODEL_CLASSES = {
    "StackedGRU": StackedGru,
    "StackedGCN": StackedGcn,
    "TGCN": TGcn,
    "CSTGCN": CstGcn,
    "RanTGCN": RanTGcn,
    "RegTGCN": RegTGcn,
}


def build_model(spec: ModelSpec, graph: SiteGraph,
                partition: RegionalPartition | None = None) -> ForecastModel:
    """Construct the architecture named by the spec over the given graph."""
    needs_partition = spec.connectivity in ("regional", "random")
    if needs_partition and partition is None:
        raise ConfigError(f"{spec.architecture} requires a partition")
    if not needs_partition and partition is not None:
        raise ConfigError(f"{spec.architecture} does not take a partition")
    if partition is not None and partition.strategy != spec.connectivity:
        raise ConfigError(
            f"partition strategy {partition.strategy!r} does not match "
            f"connectivity {spec.connectivity!r}")
    cls = _MODEL_CLASSES[spec.architecture]
    return cls(spec, GraphContext(graph, cls.operator_kind, partition))
