"""Forecasting architectures, their layers, and checkpoint storage."""

from regraph.models import architectures, checkpoint, layers
from regraph.models.architectures import *  # noqa: F403
from regraph.models.checkpoint import *  # noqa: F403
from regraph.models.layers import *  # noqa: F403

__all__ = architectures.__all__ + checkpoint.__all__ + layers.__all__
