"""Model fitting: loss, validation split, and the epoch loop."""

from regraph.training import loop
from regraph.training.loop import *  # noqa: F403

__all__ = loop.__all__
