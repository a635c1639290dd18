"""Record ingestion, the feature grid, windowing, and the synthetic generator."""

from regraph.data.frames import (
    FEATURE_COLUMNS,
    OCCUPANCY_COL,
    SCALED_COLUMNS,
    FeatureGrid,
    interpolate_to_grid,
    occupancy_rate,
)
from regraph.data.ingest import RECORD_DTYPE, RECORDS_HEADER, load_records
from regraph.data.synthetic import SyntheticConfig, generate_synthetic
from regraph.data.windows import (
    WindowSample,
    apply_scaling,
    compute_scaling,
    make_windows,
    split_by_weeks,
    step_positions,
    week_label,
)

__all__ = [
    "FEATURE_COLUMNS",
    "OCCUPANCY_COL",
    "RECORD_DTYPE",
    "RECORDS_HEADER",
    "SCALED_COLUMNS",
    "FeatureGrid",
    "SyntheticConfig",
    "WindowSample",
    "apply_scaling",
    "compute_scaling",
    "generate_synthetic",
    "interpolate_to_grid",
    "load_records",
    "make_windows",
    "occupancy_rate",
    "split_by_weeks",
    "step_positions",
    "week_label",
]
