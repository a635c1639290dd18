"""Error metrics with a per-site reference capacity for percentage errors.

Posted capacity is routinely exceeded at busy sites, so percentage errors are
taken against the 95th percentile of observed occupancy instead of 1.0. Two
readings of the percentage/absolute metrics are emitted side by side: the
standard definitions (headline) and a variant with squared numerators
(mae_literal, mape_literal) kept for comparability with reports that use it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from regraph.errors import ShapeError

__all__ = [
    "MIN_Q95_OBSERVATIONS",
    "MetricSet",
    "compute_metrics",
    "q95_reference",
    "q95_table",
]

MIN_Q95_OBSERVATIONS = 20


def q95_reference(series, min_observations: int = MIN_Q95_OBSERVATIONS) -> float:
    """95th percentile (linear interpolation) of one site's occupancy series.

    Returns NaN with a warning when fewer than min_observations values are
    available; callers treat NaN as "site excluded".
    """
    values = np.asarray(series, dtype=np.float64).ravel()
    if values.size < min_observations:
        warnings.warn(
            f"q95 reference skipped: {values.size} observations "
            f"(need {min_observations})", stacklevel=2)
        return float("nan")
    return float(np.percentile(values, 95))


def q95_table(stack, min_observations: int = MIN_Q95_OBSERVATIONS) -> np.ndarray:
    """Per-site q95 for a sites-by-observations matrix.

    Equal to ``q95_reference`` row by row; rows too short for it take that
    path, so each still warns.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 2:
        raise ShapeError(f"expected a 2-D sites-by-observations matrix, "
                         f"got shape {stack.shape}")
    if stack.shape[1] < min_observations:
        return np.array([q95_reference(row, min_observations) for row in stack])
    return np.percentile(stack, 95, axis=1)


@dataclass(frozen=True)
class MetricSet:
    """One split's error summary; *_literal use squared numerators."""

    rmse: float
    mae: float
    mape: float
    mae_literal: float
    mape_literal: float
    entry_count: int
    mape_entry_count: int

    def as_row(self) -> dict:
        return {
            "rmse": self.rmse,
            "mae": self.mae,
            "mape": self.mape,
            "mae_literal": self.mae_literal,
            "mape_literal": self.mape_literal,
        }


def compute_metrics(pred, truth, q95) -> MetricSet:
    """RMSE/MAE/MAPE over aligned sites-by-steps arrays.

    q95 is per site; sites with a zero or NaN reference are dropped from the
    percentage metrics (with a warning) but still count toward RMSE and MAE.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    q95 = np.asarray(q95, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} does not match "
                         f"truth shape {truth.shape}")
    if pred.ndim != 2 or pred.size == 0:
        raise ShapeError(f"expected nonempty sites-by-steps arrays, "
                         f"got shape {pred.shape}")
    if q95.shape != (pred.shape[0],):
        raise ShapeError(f"q95 must have one entry per site, got shape "
                         f"{q95.shape} for {pred.shape[0]} sites")

    err = pred - truth
    rmse = float(np.sqrt(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))
    mae_literal = float(np.mean(err * err))

    usable = np.isfinite(q95) & (q95 > 0)
    if not np.all(usable):
        warnings.warn(
            f"{int(np.sum(~usable))} site(s) excluded from MAPE "
            f"(zero or undefined q95 reference)", stacklevel=2)
    if np.any(usable):
        scaled = np.abs(err[usable]) / q95[usable, None]
        mape = float(100.0 * np.mean(scaled))
        mape_literal = float(100.0 * np.mean(
            err[usable] ** 2 / q95[usable, None]))
        mape_count = int(err[usable].size)
    else:
        mape = float("nan")
        mape_literal = float("nan")
        mape_count = 0

    return MetricSet(rmse=rmse, mae=mae, mape=mape, mae_literal=mae_literal,
                     mape_literal=mape_literal, entry_count=int(err.size),
                     mape_entry_count=mape_count)
