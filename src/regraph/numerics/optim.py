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

A step writes its temporaries into two scratch arrays the size of the
largest parameter, made once, so a train loop does not allocate (and the
C allocator does not hand back and fault in again) parameter-sized arrays
on every step. The float operations and their order are those of the
formulas above. A grad array is only read: it may alias another's.
"""

from __future__ import annotations

import numpy as np

from .tensor import DiffTensor

__all__ = ["RmsProp"]


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
        self.sq_avg = [np.zeros_like(p.values) for p in self.params]
        largest = max((p.values.size for p in self.params), default=0)
        scratch = (np.empty(largest), np.empty(largest))
        # per parameter, two views of its shape into the scratch arrays
        self._scratch = [tuple(row[:p.values.size].reshape(p.values.shape) for row in scratch)
                         for p in self.params]

    def grad_norm(self) -> float:
        """The L2 norm of all present gradients: each one's sum of squares,
        added in parameter order, under one square root."""
        total = 0.0
        for p, (sq, _) in zip(self.params, self._scratch):
            if p.grad is not None:
                total += float(np.sum(np.multiply(p.grad, p.grad, out=sq)))
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
        for i, p in enumerate(self.params):
            g = p.grad
            buf, tmp = self._scratch[i]
            if factor is not None:
                g = np.multiply(g, factor, out=buf)
            if self.weight_decay:
                np.multiply(self.weight_decay, p.values, out=tmp)
                g = np.add(g, tmp, out=buf)
            acc = self.sq_avg[i]
            acc *= self.decay_rate
            np.multiply(1.0 - self.decay_rate, g, out=tmp)
            tmp *= g
            acc += tmp
            np.sqrt(acc, out=tmp)
            tmp += self.smoothing
            np.divide(g, tmp, out=tmp)
            np.multiply(self.learning_rate, tmp, out=tmp)
            p.values -= tmp
            p.grad = None
