"""Record ingestion, the feature grid, windowing, and the synthetic generator."""

from regraph.data import frames, ingest, synthetic, windows
from regraph.data.frames import *  # noqa: F403
from regraph.data.ingest import *  # noqa: F403
from regraph.data.synthetic import *  # noqa: F403
from regraph.data.windows import *  # noqa: F403

__all__ = frames.__all__ + ingest.__all__ + synthetic.__all__ + windows.__all__
