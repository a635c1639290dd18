"""RMSProp with L2 weight decay folded into the gradient.

Update per parameter, the PyTorch RMSprop convention:
    g    <- grad + weight_decay * p
    acc  <- decay_rate * acc + (1 - decay_rate) * g^2
    p    <- p - lr * g / (sqrt(acc) + smoothing)

The accumulator sees the decayed gradient, so no step exceeds
lr / sqrt(1 - decay_rate), not even the pure decay of a parameter whose
gradient is always zero. With weight_decay 0 the term is skipped, so the
step is exactly the plain RMSProp step. Grads are cleared after the step.
"""

from __future__ import annotations

import numpy as np

from .tensor import DiffTensor

__all__ = ["RmsProp"]


class RmsProp:
    def __init__(self, params: list[DiffTensor], learning_rate: float = 1e-3,
                 weight_decay: float = 1e-4, decay_rate: float = 0.99,
                 smoothing: float = 1e-8):
        if learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.decay_rate = float(decay_rate)
        self.smoothing = float(smoothing)
        self.sq_avg = [np.zeros_like(p.values) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"rmsprop step: parameter {i} has no gradient")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.values
            acc = self.sq_avg[i]
            acc *= self.decay_rate
            acc += (1.0 - self.decay_rate) * g * g
            p.values -= self.learning_rate * (g / (np.sqrt(acc) + self.smoothing))
            p.grad = None

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
