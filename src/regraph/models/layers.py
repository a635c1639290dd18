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
    concat,
    matmul,
    mul,
    parameter,
    relu,
    reshape,
    sigmoid,
    softmax,
    sub,
    tanh,
)

__all__ = [
    "AttentionAggregator",
    "Decoder",
    "GcnGruCell",
    "GcnLayer",
    "StructuralConv",
    "attention_aggregate",
    "affine",
    "gcn_forward",
    "gru_step",
    "structural_conv",
    "uniform_init",
]

ACTIVATIONS = {
    "sigmoid": sigmoid,
    "tanh": tanh,
    "relu": relu,
    "identity": lambda t: t,
}


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> DiffTensor:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) parameter."""
    bound = 1.0 / np.sqrt(fan_in)
    return parameter(rng.uniform(-bound, bound, size=shape))


def affine(x: DiffTensor, w: DiffTensor, b: DiffTensor) -> DiffTensor:
    """x @ w + b with the 1 x out bias added to every row."""
    return add_row(matmul(x, w), b)


class GcnLayer:
    """Graph convolution: act(N @ H @ W + b) over a normalized operator N."""

    def __init__(self, rng: np.random.Generator, in_width: int, out_width: int,
                 activation: str = "sigmoid"):
        if out_width < 1:
            raise ShapeError(f"gcn layer: out_width must be >= 1, got {out_width}")
        if activation not in ACTIVATIONS:
            raise ShapeError(f"gcn layer: unknown activation {activation!r}")
        self.w = uniform_init(rng, (in_width, out_width), in_width)
        self.b = uniform_init(rng, (1, out_width), in_width)
        self.activation = activation

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("w", self.w), ("b", self.b)]


def gcn_forward(layer: GcnLayer, normalized: DiffTensor, h: DiffTensor) -> DiffTensor:
    if h.shape[1] != layer.w.shape[0]:
        raise ShapeError(
            f"gcn_forward: features {h.shape} do not match weight {layer.w.shape}")
    return ACTIVATIONS[layer.activation](affine(matmul(normalized, h), layer.w, layer.b))


class StructuralConv:
    """Neighborhood sum plus self term through one shared weight, sigmoid out.

    Per node: sigmoid(W eta_i + W sum_k eta_k over neighbors), realized as
    sigmoid((eta + A_bin eta) W) with a binary, zero-diagonal adjacency.
    No bias, matching the printed form.
    """

    def __init__(self, rng: np.random.Generator, in_width: int, out_width: int):
        self.w = uniform_init(rng, (in_width, out_width), in_width)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("w", self.w)]


def structural_conv(layer: StructuralConv, binary_adjacency: DiffTensor,
                    eta: DiffTensor) -> DiffTensor:
    if eta.shape[1] != layer.w.shape[0]:
        raise ShapeError(
            f"structural_conv: features {eta.shape} do not match weight {layer.w.shape}")
    gathered = add(eta, matmul(binary_adjacency, eta))
    return sigmoid(matmul(gathered, layer.w))


class GcnGruCell:
    """GRU cell whose input is an (already convolved) feature block.

    All three gates act on the concatenation of the input block and the
    hidden state; no gate biases.
    """

    def __init__(self, rng: np.random.Generator, in_width: int, hidden: int):
        width = in_width + hidden
        self.hidden = hidden
        self.in_width = in_width
        self.w_z = uniform_init(rng, (width, hidden), width)
        self.w_r = uniform_init(rng, (width, hidden), width)
        self.w_c = uniform_init(rng, (width, hidden), width)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("wz", self.w_z), ("wr", self.w_r), ("wc", self.w_c)]


def gru_step(cell: GcnGruCell, conv_out: DiffTensor, h_prev: DiffTensor) -> DiffTensor:
    if conv_out.shape[1] != cell.in_width or h_prev.shape[1] != cell.hidden:
        raise ShapeError(
            f"gru_step: got input {conv_out.shape}, hidden {h_prev.shape}, "
            f"cell expects widths ({cell.in_width}, {cell.hidden})")
    stacked = concat([conv_out, h_prev], axis=1)
    z = sigmoid(matmul(stacked, cell.w_z))
    r = sigmoid(matmul(stacked, cell.w_r))
    candidate = tanh(matmul(concat([conv_out, mul(h_prev, r)], axis=1), cell.w_c))
    return add(mul(sub(1.0, z), h_prev), mul(z, candidate))


class AttentionAggregator:
    """Learnable per-lag scores softmaxed into mixture weights."""

    def __init__(self, rng: np.random.Generator, k: int):
        if k < 1:
            raise ShapeError(f"attention: need k >= 1, got {k}")
        self.k = k
        self.scores = uniform_init(rng, (k,), k)

    def params(self) -> list[tuple[str, DiffTensor]]:
        return [("scores", self.scores)]


def attention_aggregate(agg: AttentionAggregator,
                        hidden_states: list[DiffTensor]) -> DiffTensor:
    if len(hidden_states) != agg.k:
        raise ShapeError(
            f"attention_aggregate: got {len(hidden_states)} states, expected {agg.k}")
    n, h = hidden_states[0].shape
    weights = reshape(softmax(agg.scores), (1, agg.k))
    flat = concat([reshape(state, (1, n * h)) for state in hidden_states], axis=0)
    return reshape(matmul(weights, flat), (n, h))


class Decoder:
    """Two affine maps with a ReLU between; emits all horizons at once."""

    def __init__(self, rng: np.random.Generator, in_width: int, hidden: int, out_width: int):
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
