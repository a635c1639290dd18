"""Frozen-weight evaluation: per-horizon metrics, comparison tables, exports.

All writers emit deterministic bytes for identical inputs: rows are sorted by
explicit keys, floats are serialized with repr, and no timestamps appear.
"""

from dataclasses import dataclass, field

import numpy as np

from regraph.data import apply_scaling, step_positions, week_label
from regraph.errors import ConfigError, ShapeError
from regraph.evaluation.metrics import MetricSet, compute_metrics, q95_table
from regraph.files import write_json, write_lines
from regraph.heap import pin_heap

__all__ = [
    "METRICS_COLUMNS",
    "EvalReport",
    "aggregate_comparison",
    "evaluate_model",
    "generality_inference",
    "metric_rows",
    "predict_samples",
    "write_comparison_json",
    "write_metrics_csv",
    "write_timeseries",
]

METRICS_COLUMNS = ("model", "connectivity", "horizon_min", "seed",
                   "rmse", "mae", "mape", "mae_literal", "mape_literal")


@dataclass(frozen=True)
class EvalReport:
    """Per-horizon metrics for one model on one split.

    ``predictions`` is the (n_samples, n_sites, n_horizons) stack from
    ``predict_samples`` that the metrics were computed from.
    """

    horizons: tuple[int, ...]
    grid_step_min: int
    metrics: dict[int, MetricSet]
    q95: np.ndarray
    site_ids: tuple[str, ...]
    n_samples: int
    predictions: np.ndarray = field(repr=False)

    def horizon_minutes(self, steps: int) -> int:
        return steps * self.grid_step_min


def predict_samples(model, samples, scaling_lo, scaling_hi):
    """Stack predictions and truths as (n_samples, n_sites, n_horizons).

    Windows of one grid share their common steps, and each of those is
    encoded once (``ForecastModel.predict_windows``). Each sample is built
    and scaled when its first step comes up. The heap is pinned first
    (``heap.pin_heap``), since each step frees and re-allocates its arrays.
    """
    pin_heap()
    samples = list(samples)
    truths = np.stack([s.targets for s in samples])
    preds = model.predict_windows(
        step_positions(samples),
        lambda b: apply_scaling(samples[b], scaling_lo, scaling_hi).inputs)
    return preds, truths


def evaluate_model(model, samples, scaling_lo, scaling_hi,
                   grid_step_min: int | None = None) -> EvalReport:
    """Frozen inference over the samples, metrics per horizon.

    Horizons are counted in steps of the model's grid; ``grid_step_min``,
    when given, must be that step.
    """
    step = model.spec.grid_step_min
    if grid_step_min is not None and grid_step_min != step:
        raise ConfigError(f"evaluation asked for a {grid_step_min}-minute step, "
                          f"but the model reads a {step}-minute grid")
    samples = list(samples)
    if not samples:
        raise ConfigError("evaluation requires at least one sample")
    if tuple(samples[0].horizons) != tuple(model.spec.horizons):
        raise ConfigError(
            f"sample horizons {tuple(samples[0].horizons)} do not match "
            f"model horizons {model.spec.horizons}")
    preds, truths = predict_samples(model, samples, scaling_lo, scaling_hi)
    n_sites = truths.shape[1]
    # reference capacity from every truth entry of the split, per site
    q95 = q95_table(truths.transpose(1, 0, 2).reshape(n_sites, -1))
    metrics = {}
    for j, h in enumerate(model.spec.horizons):
        metrics[h] = compute_metrics(preds[:, :, j].T, truths[:, :, j].T, q95)
    site_ids = tuple(s.site_id for s in model.ctx.graph.nodes)
    return EvalReport(horizons=tuple(model.spec.horizons),
                      grid_step_min=step, metrics=metrics, q95=q95,
                      site_ids=site_ids, n_samples=len(samples), predictions=preds)


def generality_inference(model, bundle, samples) -> EvalReport:
    """Evaluate a trained checkpoint's model on weeks it has never seen.

    ``model`` is restored from ``bundle``, which gives the training weeks
    and the scaling. Refuses to run when any sample touches a
    training week, since that would silently turn a transfer experiment
    into a recall experiment.
    """
    trained = set(bundle.train_weeks)
    touched = sorted({week_label(w) for s in samples for w in s.weeks})
    overlap = [w for w in touched if w in trained]
    if overlap:
        raise ConfigError(
            f"held-out weeks overlap training weeks: {', '.join(overlap)}")
    return evaluate_model(model, samples, bundle.scaling_lo, bundle.scaling_hi)


def metric_rows(model_name: str, connectivity: str, seed: int,
                report: EvalReport) -> list[dict]:
    """One metrics.csv row per horizon."""
    rows = []
    for h in report.horizons:
        row = {"model": model_name, "connectivity": connectivity,
               "horizon_min": report.horizon_minutes(h), "seed": seed}
        row.update(report.metrics[h].as_row())
        rows.append(row)
    return rows


def write_metrics_csv(path, rows) -> None:
    ordered = sorted(rows, key=lambda r: (r["model"], r["connectivity"],
                                          r["horizon_min"], r["seed"]))
    lines = [",".join(METRICS_COLUMNS)]
    for row in ordered:
        cells = []
        for col in METRICS_COLUMNS:
            value = row[col]
            cells.append(repr(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    write_lines(path, lines)


def aggregate_comparison(rows) -> dict:
    """Mean and population std over seeds per (model, horizon) cell."""
    cells: dict[tuple, dict[str, list]] = {}
    connectivity: dict[str, str] = {}
    for row in rows:
        connectivity[row["model"]] = row["connectivity"]
        key = (row["model"], row["horizon_min"])
        bucket = cells.setdefault(key, {m: [] for m in METRICS_COLUMNS[4:]})
        for m in METRICS_COLUMNS[4:]:
            bucket[m].append(row[m])
    table: dict[str, dict] = {}
    for (model, horizon), bucket in sorted(cells.items()):
        entry = table.setdefault(model, {"connectivity": connectivity[model],
                                         "cells": {}})
        entry["cells"][str(horizon)] = {
            m: {"mean": float(np.mean(vals)), "std": float(np.std(vals)),
                "n": len(vals)}
            for m, vals in bucket.items()
        }
    return table


def write_comparison_json(path, rows, overlap_costs=None,
                          literal_headline: bool = False) -> None:
    horizons = sorted({row["horizon_min"] for row in rows})
    doc = {
        "horizon_minutes": horizons,
        "headline": "literal_eq14" if literal_headline else "standard",
        "models": aggregate_comparison(rows),
    }
    if overlap_costs is not None:
        doc["overlap_cost"] = overlap_costs
    write_json(path, doc)


def write_timeseries(path, samples, report: EvalReport) -> None:
    """Target-time-aligned truth and predictions, one row per (site, time).

    ``report`` is ``evaluate_model``'s over the samples, in their order; its
    predictions, site ids, horizons and grid step fill the rows. A time
    reached by several horizons carries each prediction in its own column;
    unreached horizon columns stay empty.
    """
    samples = list(samples)
    preds, site_ids, horizons = report.predictions, report.site_ids, report.horizons
    if preds.shape[:2] != (len(samples), len(site_ids)):
        raise ShapeError(
            f"prediction stack shape {preds.shape} does not match "
            f"{len(samples)} samples x {len(site_ids)} sites")
    table: dict[tuple, dict[int, float]] = {}
    truth_at: dict[tuple, float] = {}
    for s_idx, s in enumerate(samples):
        targets, times = s.targets, s.target_times  # a grid window builds both on each read
        for j, h in enumerate(horizons):
            t = times[j]
            for i, sid in enumerate(site_ids):
                key = (sid, t)
                truth_at[key] = float(targets[i, j])
                table.setdefault(key, {})[h] = float(preds[s_idx, i, j])
    header = ["site_id", "time", "truth"] + [
        f"pred_h{report.horizon_minutes(h)}" for h in horizons]
    lines = [",".join(header)]
    for (sid, t) in sorted(table):
        row = [sid, t.isoformat(), repr(truth_at[(sid, t)])]
        row += [repr(table[(sid, t)][h]) if h in table[(sid, t)] else ""
                for h in horizons]
        lines.append(",".join(row))
    write_lines(path, lines)
