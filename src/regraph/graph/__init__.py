"""Site graphs: distance providers, construction, and decompositions."""

from regraph.graph import build, distance
from regraph.graph.build import *  # noqa: F403
from regraph.graph.distance import *  # noqa: F403

__all__ = build.__all__ + distance.__all__
