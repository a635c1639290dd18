"""Reverse-mode autodiff on dense float64 arrays, plus the optimizer."""

from regraph.numerics import optim, tensor
from regraph.numerics.optim import *  # noqa: F403
from regraph.numerics.tensor import *  # noqa: F403

__all__ = optim.__all__ + tensor.__all__
