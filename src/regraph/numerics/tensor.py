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
    "matmul",
    "matmul_add",
    "mean_all",
    "mul",
    "no_grad",
    "parameter",
    "relu",
    "reshape",
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


def matmul_add(a, w, c) -> DiffTensor:
    """``a @ w + c`` as one op, for a ``c`` of the product's shape.

    Values equal ``add(matmul(a, w), c)`` bit for bit; the tape keeps one
    output instead of two.
    """
    a, w, c = _as_tensor(a), _as_tensor(w), _as_tensor(c)
    if a.values.ndim != 2 or w.values.ndim != 2 or a.values.shape[1] != w.values.shape[0] \
            or c.values.shape != (a.values.shape[0], w.values.shape[1]):
        raise ShapeError(f"matmul_add: incompatible shapes {a.values.shape}, "
                         f"{w.values.shape} and {c.values.shape}")
    values = a.values @ w.values
    values += c.values
    out = DiffTensor(values)

    def grad_fn(g):
        ga = g @ w.values.T if a.requires_grad else None
        gw = a.values.T @ g if w.requires_grad else None
        return ga, gw, (g if c.requires_grad else None)

    _record((a, w, c), out, grad_fn)
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


def sigmoid(x) -> DiffTensor:
    x = _as_tensor(x)
    v = x.values
    # exp(min(v, 0)) / (1 + e) with e = exp(-|v|): the numerator is 1 for
    # v >= 0 and e for v < 0, so exp() never overflows and every entry takes
    # the same float operations as a split by sign. fmin sends NaN to the
    # numerator 1, and the NaN in the denominator carries through. The out=
    # buffers keep a 0-d input an array instead of a NumPy scalar.
    s = np.fmin(v, 0.0, out=np.empty_like(v))
    np.exp(s, out=s)
    e = np.abs(v, out=np.empty_like(v))
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    s /= e
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


def take_rows(x, index) -> DiffTensor:
    """Rows ``x.values[index]`` for a 1-D index or a slice; the gradient adds
    each output row onto its source. A slice gives a view, not a copy, and
    its gradient is the rows' alone, which ``backward`` adds into them."""
    x = _as_tensor(x)
    sliced = isinstance(index, slice)
    if not sliced:
        index = np.asarray(index, dtype=np.intp)
    if x.values.ndim != 2 or (not sliced and index.ndim != 1):
        raise ShapeError(f"take_rows: expected a matrix and a 1-D index or a slice, "
                         f"got shapes {x.values.shape} and {np.shape(index)}")
    out = DiffTensor(x.values[index])

    def grad_fn(g):
        if sliced:
            return ((index, g),)
        gx = np.zeros_like(x.values)
        np.add.at(gx, index, g)
        return (gx,)

    _record((x,), out, grad_fn)
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
    a tensor's first contribution is kept as given, but an array an op
    returned may alias another tensor's gradient, so ``backward`` writes
    only into arrays it allocated itself. It allocates one when a tensor
    takes its second contribution, or a row-only one, and adds every later
    contribution into it in place, in the same order as ``t.grad + g``.
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
                    t.grad[rows] = g
                else:
                    if id(t) not in owned:
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
