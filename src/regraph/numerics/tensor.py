"""Dense float64 tensors with reverse-mode automatic differentiation.

The forward pass records every differentiable operation on a module-level
tape; ``backward`` replays the tape once in reverse, accumulating gradients
into ``DiffTensor.grad``. Values live in numpy arrays, so the heavy kernels
(matmul, elementwise transcendentals) run in compiled code while every
gradient rule stays visible here.

Supported broadcasting is deliberately narrow: equal shapes, a scalar
against a tensor, or (through ``add_row`` alone) a 1 x m bias row against
an n x m matrix. Wider broadcasting would complicate the gradient rules
for no benefit at the graph sizes this package targets.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from ..errors import NumericError, ShapeError

__all__ = [
    "DiffTensor",
    "add",
    "add_row",
    "backward",
    "clear_tape",
    "concat",
    "constant",
    "gru_update",
    "matmul",
    "mean_all",
    "mul",
    "no_grad",
    "parameter",
    "propagate",
    "relu",
    "reshape",
    "segment_gcn",
    "sigmoid",
    "softmax",
    "sub",
    "sum_all",
    "take_rows",
    "tanh",
    "tape_length",
]


class DiffTensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"DiffTensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def parameter(values, requires_grad: bool = True) -> DiffTensor:
    return DiffTensor(np.array(values, dtype=np.float64, copy=True), requires_grad=requires_grad)


def constant(values) -> DiffTensor:
    return DiffTensor(values, requires_grad=False)


class _TapeEntry:
    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs, output, grad_fn):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


# The forward pass appends in execution order, so the tape is already
# topologically sorted: an entry's inputs were produced by earlier entries
# (or are leaves), and reverse replay visits each recorded node once.
_TAPE: list[_TapeEntry] = []
_RECORDING = True


def tape_length() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    """Drop all recorded operations, e.g. after an aborted forward pass."""
    _TAPE.clear()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording, e.g. for validation and frozen inference."""
    global _RECORDING
    prev = _RECORDING
    _RECORDING = False
    try:
        yield
    finally:
        _RECORDING = prev


def _record(inputs: tuple[DiffTensor, ...], output: DiffTensor,
            grad_fn: Callable[[np.ndarray], tuple]) -> None:
    if _RECORDING and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _TAPE.append(_TapeEntry(inputs, output, grad_fn))


def _as_tensor(x) -> DiffTensor:
    if isinstance(x, DiffTensor):
        return x
    return DiffTensor(x)


def _is_scalar(t: DiffTensor) -> bool:
    return t.values.ndim == 0 or t.values.size == 1


def _reduce_to(grad: np.ndarray, t: DiffTensor) -> np.ndarray:
    """Collapse a broadcast gradient back onto a scalar operand's shape."""
    if grad.shape == t.values.shape:
        return grad
    return np.sum(grad).reshape(t.values.shape)


def _check_binary(a: DiffTensor, b: DiffTensor, op: str) -> None:
    if a.values.shape == b.values.shape:
        return
    if _is_scalar(a) or _is_scalar(b):
        return
    raise ShapeError(f"{op}: incompatible shapes {a.values.shape} and {b.values.shape}")


def add(a, b) -> DiffTensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary(a, b, "add")
    out = DiffTensor(a.values + b.values)

    def grad_fn(g):
        ga = _reduce_to(g, a) if a.requires_grad else None
        gb = _reduce_to(g, b) if b.requires_grad else None
        return ga, gb

    _record((a, b), out, grad_fn)
    return out


def sub(a, b) -> DiffTensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary(a, b, "sub")
    out = DiffTensor(a.values - b.values)

    def grad_fn(g):
        ga = _reduce_to(g, a) if a.requires_grad else None
        gb = _reduce_to(-g, b) if b.requires_grad else None
        return ga, gb

    _record((a, b), out, grad_fn)
    return out


def mul(a, b) -> DiffTensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary(a, b, "mul")
    out = DiffTensor(a.values * b.values)

    def grad_fn(g):
        ga = _reduce_to(g * b.values, a) if a.requires_grad else None
        gb = _reduce_to(g * a.values, b) if b.requires_grad else None
        return ga, gb

    _record((a, b), out, grad_fn)
    return out


def matmul(a, b) -> DiffTensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.values.shape} and {b.values.shape}")
    out = DiffTensor(a.values @ b.values)

    def grad_fn(g):
        ga = g @ b.values.T if a.requires_grad else None
        gb = a.values.T @ g if b.requires_grad else None
        return ga, gb

    _record((a, b), out, grad_fn)
    return out


def add_row(x, row) -> DiffTensor:
    """``x`` plus a 1 x m ``row`` added to each of its n rows."""
    x, row = _as_tensor(x), _as_tensor(row)
    if x.values.ndim != 2 or row.values.shape != (1, x.values.shape[1]):
        raise ShapeError(f"add_row: expected a matrix and a 1 x m row, "
                         f"got shapes {x.values.shape} and {row.values.shape}")
    out = DiffTensor(x.values + row.values)

    def grad_fn(g):
        # Summed as ones(1, n) @ g, not g.sum(axis=0): the two round
        # differently, and recorded training trajectories use the matmul.
        grow = np.ones((g.shape[0], 1)).T @ g if row.requires_grad else None
        return (g if x.requires_grad else None), grow

    _record((x, row), out, grad_fn)
    return out


def _sigmoid_into(v: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``out`` = the logistic sigmoid of ``v``; ``scratch`` (which may be ``v``
    itself) is overwritten, ``out`` must not be ``v``.

    exp(min(v, 0)) / (1 + e) with e = exp(-|v|): the numerator is 1 for
    v >= 0 and e for v < 0, so exp() never overflows and every entry takes
    the same float operations as a split by sign. fmin sends NaN to the
    numerator 1, and the NaN in the denominator carries through. The out=
    buffers keep a 0-d input an array instead of a NumPy scalar.
    """
    np.fmin(v, 0.0, out=out)
    np.exp(out, out=out)
    np.abs(v, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    scratch += 1.0
    out /= scratch
    return out


def sigmoid(x) -> DiffTensor:
    x = _as_tensor(x)
    v = x.values
    s = _sigmoid_into(v, np.empty_like(v), np.empty_like(v))
    out = DiffTensor(s)

    def grad_fn(g):
        return (g * s * (1.0 - s),)

    _record((x,), out, grad_fn)
    return out


def tanh(x) -> DiffTensor:
    x = _as_tensor(x)
    t = np.tanh(x.values)
    out = DiffTensor(t)

    def grad_fn(g):
        return (g * (1.0 - t * t),)

    _record((x,), out, grad_fn)
    return out


def relu(x) -> DiffTensor:
    x = _as_tensor(x)
    mask = x.values > 0
    out = DiffTensor(np.where(mask, x.values, 0.0))

    def grad_fn(g):
        return (g * mask,)

    _record((x,), out, grad_fn)
    return out


def concat(tensors: Sequence[DiffTensor], axis: int = 0) -> DiffTensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    first = tensors[0].values.shape
    for t in tensors[1:]:
        s = t.values.shape
        if len(s) != len(first) or any(s[d] != first[d] for d in range(len(s)) if d != axis):
            raise ShapeError(f"concat: non-axis dims differ, {first} vs {s}")
    out = DiffTensor(np.concatenate([t.values for t in tensors], axis=axis))
    extents = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum(extents)[:-1]

    def grad_fn(g):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, tensors))

    _record(tuple(tensors), out, grad_fn)
    return out


def take_rows(x, rows: slice) -> DiffTensor:
    """The rows ``x.values[rows]`` of a matrix, for a slice: a view, not a
    copy. Its gradient is the rows' alone, which ``backward`` adds into them."""
    x = _as_tensor(x)
    if x.values.ndim != 2 or not isinstance(rows, slice):
        raise ShapeError(f"take_rows: expected a matrix and a slice, "
                         f"got shape {x.values.shape} and {type(rows).__name__}")
    out = DiffTensor(x.values[rows])

    def grad_fn(g):
        return ((rows, g),)

    _record((x,), out, grad_fn)
    return out


def _blocks(x: DiffTensor, n: int, op: str) -> int:
    """How many n-row blocks (stacked steps) the matrix ``x`` holds."""
    if x.values.ndim != 2 or n < 1 or x.values.shape[0] % n:
        raise ShapeError(f"{op}: expected a matrix of whole {n}-row blocks, "
                         f"got shape {x.values.shape}")
    return x.values.shape[0] // n


def _neighbor_sum(starts: np.ndarray, neighbors: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per n-row block of ``v``, each node's neighbor rows added in
    ascending index order; a node of degree 0 gets a zero row.

    Nodes go in order of falling degree, so the nodes that have an s-th
    neighbor are a prefix, and slot s adds those neighbors' rows (of every
    block at once) to that prefix in one gather.
    """
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


def propagate(operator, x) -> DiffTensor:
    """A constant n x n ``operator`` times each n-row block of ``x``.

    ``x`` stacks m steps of n rows. A square ``operator`` (array or
    tensor) gives each block the product ``matmul(operator, block)`` takes,
    bit for bit. The pair ``(starts, neighbors)`` of ``neighbor_lists``
    stands for the binary adjacency: each block's rows of a node's
    neighbors are added in ascending index order, with no n x n array,
    and the gradient is the same sum over ``g``, the adjacency being
    symmetric. Only ``x`` is differentiated.
    """
    x = _as_tensor(x)
    if isinstance(operator, tuple):
        starts, neighbors = operator
        if np.ndim(starts) != 1 or np.ndim(neighbors) != 1 or len(starts) < 2 \
                or starts[-1] != len(neighbors):
            raise ShapeError("propagate: expected neighbor lists (starts, neighbors)")
        _blocks(x, len(starts) - 1, "propagate")

        def product(v):
            return _neighbor_sum(starts, neighbors, v)
        transposed = product
    else:
        a = _as_tensor(operator).values
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"propagate: expected a square operator, got shape {a.shape}")
        n = a.shape[0]
        m = _blocks(x, n, "propagate")

        def product(v, op=a):
            return np.matmul(op, v.reshape(m, n, -1)).reshape(v.shape)

        def transposed(v):
            return product(v, a.T)
    out = DiffTensor(product(x.values))

    def grad_fn(g):
        return (transposed(g),)

    _record((x,), out, grad_fn)
    return out


def segment_gcn(x, groups, operators, weights, biases) -> DiffTensor:
    """A graph convolution per group of rows, over stacked steps, as one op.

    ``x`` stacks m steps of n rows (m*n x f). ``groups`` are index arrays
    that partition a step's n rows. Each group g maps its rows of every
    step to sigmoid(N_g @ x_g @ W_g + b_g), with a constant |g| x |g|
    operator N_g (an array), a weight W_g (f x h) and a 1 x h bias row b_g,
    and the result fills the same rows of the m*n x h output. The values
    equal ``sigmoid(add_row(matmul(matmul(N_g, x_g), W_g), b_g))`` taken
    step by step and group by group, bit for bit; the gradients of W_g and
    b_g are summed over all m steps in one product.
    """
    x = _as_tensor(x)
    weights = [_as_tensor(w) for w in weights]
    biases = [_as_tensor(b) for b in biases]
    n = sum(len(idx) for idx in groups)
    m = _blocks(x, n, "segment_gcn")
    f = x.values.shape[1]
    h = weights[0].values.shape[1] if weights else 0
    if not (len(groups) == len(operators) == len(weights) == len(biases)) or any(
            w.values.shape != (f, h) or b.values.shape != (1, h) or
            np.shape(a) != (len(idx), len(idx))
            for idx, a, w, b in zip(groups, operators, weights, biases)):
        raise ShapeError("segment_gcn: each group needs a square operator of its size, "
                         f"an {f} x h weight and a 1 x h bias row")
    x3 = x.values.reshape(m, n, f)
    pre = np.empty((m, n, h))
    propagated = []
    for idx, a, w, b in zip(groups, operators, weights, biases):
        p = np.matmul(a, x3[:, idx]).reshape(-1, f)
        z = p @ w.values
        z += b.values
        pre[:, idx] = z.reshape(m, len(idx), h)
        propagated.append(p)
    pre = pre.reshape(m * n, h)
    s = _sigmoid_into(pre, np.empty_like(pre), pre)
    out = DiffTensor(s)

    def grad_fn(g):
        gs = g * s
        gs *= 1.0 - s
        gs3 = gs.reshape(m, n, h)
        gx = np.empty((m, n, f)) if x.requires_grad else None
        gws, gbs = [], []
        for idx, a, w, b, p in zip(groups, operators, weights, biases, propagated):
            gz = gs3[:, idx].reshape(-1, h)
            gws.append(p.T @ gz if w.requires_grad else None)
            gbs.append(np.ones((gz.shape[0], 1)).T @ gz if b.requires_grad else None)
            if gx is not None:
                gx[:, idx] = np.matmul(a.T, (gz @ w.values.T).reshape(m, len(idx), f))
        return (None if gx is None else gx.reshape(m * n, f), *gws, *gbs)

    _record((x, *weights, *biases), out, grad_fn)
    return out


def gru_update(gate_x, rows: slice, h_prev, hidden) -> DiffTensor:
    """One GRU update as one op, from the gates' input halves and the state.

    ``gate_x`` holds the z, r and candidate input halves ``x @ W_x``, of
    which this update reads the rows ``rows``; ``hidden`` holds the hidden
    halves ``W_h`` of the same gates. With z = sigmoid(h @ W_zh + x_z),
    r = sigmoid(h @ W_rh + x_r) and c = tanh((h * r) @ W_ch + x_c), the
    update is (1 - z) * h + z * c; ``h_prev`` None is the all-zero state,
    where it is sigmoid(x_z) * tanh(x_c) and x_r takes the zero gradient
    an explicit zero state gives it. Values equal those ops taken one
    by one, bit for bit. The backward replays their gradient rules in
    reverse tape order, so every gradient matches too, as long as
    ``h_prev`` takes its first gradient here (true wherever each update
    consumes the state the last one made).
    """
    xz, xr, xc = (_as_tensor(t) for t in gate_x)
    vz, vr, vc = xz.values[rows], xr.values[rows], xc.values[rows]
    inputs = (xz, xr, xc)
    if h_prev is not None:
        h_prev = _as_tensor(h_prev)
        inputs += (h_prev, *(_as_tensor(w) for w in hidden))
    width = vz.shape[-1]
    if vz.ndim != 2 or vr.shape != vz.shape or vc.shape != vz.shape or \
            h_prev is not None and (h_prev.values.shape != vz.shape or
                                    any(w.values.shape != (width, width) for w in inputs[4:])):
        raise ShapeError(f"gru_update: gate rows {vz.shape} do not match the state "
                         f"{getattr(h_prev, 'shape', None)} or the hidden weights")

    if h_prev is None:
        z = _sigmoid_into(vz, np.empty_like(vz), np.empty_like(vz))
        c = np.tanh(vc)
        out = DiffTensor(z * c)

        def grad_fn(g):
            gz = g * c
            gz *= z
            gz *= 1.0 - z
            gc = g * z
            gc *= 1.0 - c * c
            return (rows, gz), (rows, np.zeros_like(gz)), (rows, gc)

        _record(inputs, out, grad_fn)
        return out

    h = h_prev.values
    wz, wr, wc = (w.values for w in inputs[4:])
    a = h @ wz
    a += vz
    z = _sigmoid_into(a, np.empty_like(a), a)
    np.matmul(h, wr, out=a)
    a += vr
    r = _sigmoid_into(a, np.empty_like(a), a)
    # r is kept and h * r is taken again in the backward
    hr = np.multiply(h, r, out=a)
    c = hr @ wc
    c += vc
    np.tanh(c, out=c)
    new = np.subtract(1.0, z, out=hr)
    new *= h
    new += z * c
    out = DiffTensor(new)

    def grad_fn(g):
        gz = g * c
        gc = g * z
        gh = g * (1.0 - z)
        gz -= g * h
        gc *= 1.0 - c * c
        ghr = gc @ wc.T
        gwc = (h * r).T @ gc
        gh += ghr * r
        gr = ghr * h
        gr *= r
        gr *= 1.0 - r
        gh += gr @ wr.T
        gwr = h.T @ gr
        gz *= z
        gz *= 1.0 - z
        gh += gz @ wz.T
        gwz = h.T @ gz
        return (rows, gz), (rows, gr), (rows, gc), gh, gwz, gwr, gwc

    _record(inputs, out, grad_fn)
    return out


def reshape(x, shape: tuple[int, ...]) -> DiffTensor:
    x = _as_tensor(x)
    old = x.values.shape
    out = DiffTensor(x.values.reshape(shape))

    def grad_fn(g):
        return (g.reshape(old),)

    _record((x,), out, grad_fn)
    return out


def softmax(v) -> DiffTensor:
    """Stable softmax over a 1-D vector."""
    v = _as_tensor(v)
    if v.values.ndim != 1:
        raise ShapeError(f"softmax: expected a 1-D vector, got shape {v.values.shape}")
    if not np.all(np.isfinite(v.values)):
        raise NumericError("softmax: input contains non-finite entries")
    shifted = v.values - np.max(v.values)
    e = np.exp(shifted)
    s = e / np.sum(e)
    out = DiffTensor(s)

    def grad_fn(g):
        return (s * (g - np.dot(g, s)),)

    _record((v,), out, grad_fn)
    return out


def sum_all(x) -> DiffTensor:
    x = _as_tensor(x)
    out = DiffTensor(np.sum(x.values))

    def grad_fn(g):
        return (np.full(x.values.shape, float(g)),)

    _record((x,), out, grad_fn)
    return out


def mean_all(x) -> DiffTensor:
    x = _as_tensor(x)
    return mul(sum_all(x), 1.0 / x.values.size)


def backward(loss: DiffTensor) -> None:
    """Populate grads of every requires_grad leaf (e.g. parameter) of a scalar loss.

    Replays the active tape once in reverse, popping each entry, so the
    forward values only that entry held are freed during the replay and
    their memory serves the gradients that follow. Gradients accumulate
    into existing ``.grad`` arrays (zero them, e.g. via the optimizer,
    between steps). An op's output has its gradient dropped once it has
    been passed on, so intermediate gradients do not pile up.

    A grad_fn gives an array per input, or ``(rows, g)``: the gradient
    ``g`` of the slice ``rows`` alone, the rest being zero. Ownership:
    a tensor's first whole-array contribution is kept as given, but an
    array an op returned may alias another tensor's gradient, so
    ``backward`` writes only into arrays it allocated itself. It allocates
    one when a tensor takes its second contribution, and adds every later
    contribution into it in place, in the same order as ``t.grad + g``.
    A row-only contribution is added as ``t.grad[rows] += g``, into zeros
    when the tensor has no gradient yet, or into a copy of a gradient
    ``backward`` does not own.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.values.shape}")
    if len(_TAPE) == 0:
        raise ValueError("backward: tape is empty (no recorded operations)")

    seed = np.ones(loss.values.shape)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    # ids of the tensors whose .grad backward allocated; the replay makes no
    # tensor, so no id is reused while it runs
    owned: set[int] = set()
    while _TAPE:
        entry = _TAPE.pop()
        g_out = entry.output.grad
        if g_out is None:
            continue
        grads = entry.grad_fn(g_out)
        entry.output.grad = None
        for t, g in zip(entry.inputs, grads):
            if g is None or not t.requires_grad:
                continue
            if type(g) is tuple:
                rows, g = g
                if t.grad is None:
                    t.grad = np.zeros_like(t.values)
                elif id(t) not in owned:
                    t.grad = t.grad.copy()
                t.grad[rows] += g
                owned.add(id(t))
            elif id(t) in owned:
                t.grad += g
            elif t.grad is None:
                t.grad = g
            else:
                t.grad = t.grad + g
                owned.add(id(t))
