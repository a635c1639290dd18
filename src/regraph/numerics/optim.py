"""RMSProp with global-norm clipping and L2 weight decay folded into the gradient.

Update per parameter, the PyTorch RMSprop convention:
    g    <- grad * (clip_norm / norm)    (only when norm > clip_norm)
    g    <- g + weight_decay * p
    acc  <- decay_rate * acc + (1 - decay_rate) * g^2
    p    <- p - lr * g / (sqrt(acc) + smoothing)

The accumulator sees the decayed gradient, so no step exceeds
lr / sqrt(1 - decay_rate), not even the pure decay of a parameter whose
gradient is always zero. With weight_decay 0 the term is skipped, so the
step is exactly the plain RMSProp step. ``norm`` is ``grad_norm()``, the
L2 norm over every parameter's gradient, taken once per step; with
clip_norm None nothing is clipped. Grads are cleared after the step.

The update walks each parameter in blocks of ``SCRATCH_BLOCK`` elements
and writes its temporaries into two scratch blocks made once, so it
allocates no parameter-sized array, and the scratch does not grow with
the largest parameter. Each element takes the float operations of the
formulas above in their order, so blocking changes no bit. ``grad_norm``
squares each gradient whole, into a new array, since a sum taken block
by block would round differently. A grad array is only read: it may
alias another's.
"""

from __future__ import annotations

import numpy as np

from .tensor import DiffTensor

__all__ = ["RmsProp", "SCRATCH_BLOCK"]

SCRATCH_BLOCK = 1 << 14  # elements per scratch block: 128 KiB of float64


class RmsProp:
    def __init__(self, params: list[DiffTensor], *, learning_rate: float,
                 weight_decay: float, decay_rate: float, smoothing: float,
                 clip_norm: float | None):
        if not learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.decay_rate = float(decay_rate)
        self.smoothing = float(smoothing)
        self.clip_norm = clip_norm
        self.sq_avg = [np.zeros(p.values.shape) for p in self.params]
        size = min(SCRATCH_BLOCK, max((p.values.size for p in self.params), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def grad_norm(self) -> float:
        """The L2 norm of all present gradients: each one's sum of squares,
        added in parameter order, under one square root."""
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float(np.sum(np.multiply(p.grad, p.grad, order="C")))
        return float(np.sqrt(total))

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"rmsprop step: parameter {i} has no gradient")
        factor = None
        if self.clip_norm is not None:
            norm = self.grad_norm()
            if norm > self.clip_norm:
                factor = self.clip_norm / norm
        for p, acc in zip(self.params, self.sq_avg):
            if not p.values.flags.c_contiguous:
                p.values = np.ascontiguousarray(p.values)  # so its flat view writes through
            values, acc, grad = p.values.reshape(-1), acc.reshape(-1), np.reshape(p.grad, -1)
            for lo in range(0, values.size, SCRATCH_BLOCK):
                block = slice(lo, lo + SCRATCH_BLOCK)
                self._update(values[block], acc[block], grad[block], factor)
            p.grad = None

    def _update(self, values, acc, g, factor) -> None:
        """One block of the step, in place on ``values`` and ``acc``."""
        buf, tmp = (row[:g.size] for row in self._scratch)
        if factor is not None:
            g = np.multiply(g, factor, out=buf)
        if self.weight_decay:
            np.multiply(self.weight_decay, values, out=tmp)
            g = np.add(g, tmp, out=buf)
        acc *= self.decay_rate
        np.multiply(1.0 - self.decay_rate, g, out=tmp)
        tmp *= g
        acc += tmp
        np.sqrt(acc, out=tmp)
        tmp += self.smoothing
        np.divide(g, tmp, out=tmp)
        np.multiply(self.learning_rate, tmp, out=tmp)
        values -= tmp
