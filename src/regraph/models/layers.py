"""Differentiable building blocks for the forecasting architectures.

Node features are rows, so every transform right-multiplies by its weight
matrix. Biases are stored as 1 x out rows and added to every row by the
tensor core's ``add_row`` op.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..numerics import (
    DiffTensor,
    add,
    add_row,
    gru_update,
    matmul,
    mul,
    parameter,
    propagate,
    relu,
    reshape,
    sigmoid,
    softmax,
    take_rows,
)

__all__ = [
    "AttentionAggregator",
    "Decoder",
    "GcnGruCell",
    "GcnLayer",
    "StructuralConv",
    "attend",
    "attention_aggregate",
    "affine",
    "gate_inputs",
    "gcn_forward",
    "gru_step",
    "lag_weights",
    "split_gates",
    "structural_conv",
    "uniform_init",
]

def uniform_init(rng: np.random.Generator | None, shape: tuple[int, ...],
                 fan_in: int) -> DiffTensor:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) parameter; with ``rng``
    None an unfilled one, for ``ForecastModel.load_state`` to fill."""
    if rng is None:
        return DiffTensor(np.empty(shape), requires_grad=True)
    bound = 1.0 / np.sqrt(fan_in)
    return parameter(rng.uniform(-bound, bound, size=shape))


def affine(x: DiffTensor, w: DiffTensor, b: DiffTensor) -> DiffTensor:
    """x @ w + b with the 1 x out bias added to every row."""
    return add_row(matmul(x, w), b)


class GcnLayer:
    """Graph convolution: sigmoid(N @ H @ W + b) over a normalized operator N."""

    def __init__(self, rng: np.random.Generator | None, in_width: int, out_width: int):
        if out_width < 1:
            raise ShapeError(f"gcn layer: out_width must be >= 1, got {out_width}")
        self.w = uniform_init(rng, (in_width, out_width), in_width)
        self.b = uniform_init(rng, (1, out_width), in_width)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("w", self.w), ("b", self.b)]


def gcn_forward(layer: GcnLayer, normalized: DiffTensor, h: DiffTensor) -> DiffTensor:
    if h.shape[1] != layer.w.shape[0]:
        raise ShapeError(
            f"gcn_forward: features {h.shape} do not match weight {layer.w.shape}")
    return sigmoid(affine(matmul(normalized, h), layer.w, layer.b))


class StructuralConv:
    """Neighborhood sum plus self term through one shared weight, sigmoid out.

    Per node: sigmoid(W eta_i + W sum_k eta_k over neighbors), realized as
    sigmoid((eta + A_bin eta) W) with a binary, zero-diagonal adjacency.
    No bias, matching the printed form.
    """

    def __init__(self, rng: np.random.Generator | None, in_width: int, out_width: int):
        self.w = uniform_init(rng, (in_width, out_width), in_width)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("w", self.w)]


def structural_conv(layer: StructuralConv, binary_adjacency,
                    eta: DiffTensor) -> DiffTensor:
    """The conv of ``eta``, which may stack several steps of n rows each.

    ``binary_adjacency`` is the dense n x n matrix (see ``propagate``). The
    whole stack goes through the weight in one product. CSTGCN chains it over
    taped features; the 1-hop models instead take ``eta + A eta`` of their
    constant input as a NumPy feature (``GraphContext.neighbor_features``).
    """
    if eta.shape[1] != layer.w.shape[0]:
        raise ShapeError(
            f"structural_conv: features {eta.shape} do not match weight {layer.w.shape}")
    gathered = add(eta, propagate(binary_adjacency, eta))
    return sigmoid(matmul(gathered, layer.w))


class GcnGruCell:
    """GRU cell whose input is an (already convolved) feature block.

    All three gates act on the concatenation of the input block and the
    hidden state; no gate biases. Each gate's ``(in + hidden, hidden)``
    weight is used as its input rows and its hidden rows (``split_gates``),
    so the input block's products can be taken once per grid step.
    """

    def __init__(self, rng: np.random.Generator | None, in_width: int, hidden: int):
        width = in_width + hidden
        self.hidden = hidden
        self.in_width = in_width
        self.w_z = uniform_init(rng, (width, hidden), width)
        self.w_r = uniform_init(rng, (width, hidden), width)
        self.w_c = uniform_init(rng, (width, hidden), width)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("wz", self.w_z), ("wr", self.w_r), ("wc", self.w_c)]


def split_gates(cell: GcnGruCell):
    """Row views (input rows, hidden rows) of the z, r and candidate weights;
    take them once per forward call."""
    x, h = slice(0, cell.in_width), slice(cell.in_width, None)
    weights = (cell.w_z, cell.w_r, cell.w_c)
    return tuple(take_rows(w, x) for w in weights), tuple(take_rows(w, h) for w in weights)


def gate_inputs(gates, conv_out: DiffTensor) -> tuple[DiffTensor, ...]:
    """The input halves ``conv_out @ W_x`` of the z, r and candidate gates,
    one product per gate over every row (or stacked step) of ``conv_out``."""
    return tuple(matmul(conv_out, w) for w in gates[0])


def gru_step(cell: GcnGruCell, conv_out: DiffTensor, h_prev: DiffTensor | None) -> DiffTensor:
    """One GRU step of ``cell`` from an input block and the previous state.

    ``[x, h] @ W`` is taken as ``x @ W_x + h @ W_h``, and the candidate's
    ``[x, h * r] @ W_c`` as ``x @ W_cx + (h * r) @ W_ch``, in one
    ``gru_update``. ``h_prev`` None is the all-zero state: the ``h @ W_h``
    products, r and ``(1 - z) * h`` are zero there, so the step is
    ``sigmoid(x_z) * tanh(x_c)``. The models take the same update with the
    weights split once per call (``split_gates``, ``gate_inputs``).
    """
    if conv_out.shape[1] != cell.in_width or \
            (h_prev is not None and h_prev.shape[1] != cell.hidden):
        raise ShapeError(
            f"gru_step: got input {conv_out.shape}, hidden {getattr(h_prev, 'shape', None)}, "
            f"cell expects widths ({cell.in_width}, {cell.hidden})")
    gates = split_gates(cell)
    return gru_update(gate_inputs(gates, conv_out), slice(None), h_prev, gates[1])


class AttentionAggregator:
    """Learnable per-lag scores softmaxed into mixture weights."""

    def __init__(self, rng: np.random.Generator | None, k: int):
        if k < 1:
            raise ShapeError(f"attention: need k >= 1, got {k}")
        self.k = k
        self.scores = uniform_init(rng, (k,), k)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("scores", self.scores)]


def lag_weights(agg: AttentionAggregator) -> DiffTensor:
    """The softmaxed lag scores as a k x 1 column; take them once per forward call."""
    return reshape(softmax(agg.scores), (agg.k, 1))


def attend(weights: DiffTensor, lag: int, state: DiffTensor,
           total: DiffTensor | None) -> DiffTensor:
    """``total + weights[lag] * state``: the attention sum taken up to ``lag``."""
    term = mul(take_rows(weights, slice(lag, lag + 1)), state)
    return term if total is None else add(total, term)


def attention_aggregate(agg: AttentionAggregator,
                        hidden_states: list[DiffTensor]) -> DiffTensor:
    """Softmax-weighted sum of the K states, accumulated in lag order."""
    if len(hidden_states) != agg.k:
        raise ShapeError(
            f"attention_aggregate: got {len(hidden_states)} states, expected {agg.k}")
    weights = lag_weights(agg)
    total = None
    for lag, state in enumerate(hidden_states):
        total = attend(weights, lag, state, total)
    return total


class Decoder:
    """Two affine maps with a ReLU between; emits all horizons at once."""

    def __init__(self, rng: np.random.Generator | None, in_width: int, hidden: int,
                 out_width: int):
        if out_width < 1:
            raise ShapeError(f"decoder: out_width must be >= 1, got {out_width}")
        self.w0 = uniform_init(rng, (in_width, hidden), in_width)
        self.b0 = uniform_init(rng, (1, hidden), in_width)
        self.w1 = uniform_init(rng, (hidden, out_width), hidden)
        self.b1 = uniform_init(rng, (1, out_width), hidden)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("w0", self.w0), ("b0", self.b0), ("w1", self.w1), ("b1", self.b1)]

    def forward(self, h: DiffTensor) -> DiffTensor:
        return affine(relu(affine(h, self.w0, self.b0)), self.w1, self.b1)
