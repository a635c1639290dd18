"""Training loop: MSE objective, RMSProp updates, early stopping, checkpoints.

One optimizer step per window (the full graph is processed inside each step).
Validation is the most recent tenth of the samples by anchor time, held out
whenever at least two samples are present.
"""

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from regraph.data import apply_scaling, compute_scaling, week_label
from regraph.errors import ConfigError, NumericError
from regraph.evaluation import predict_samples
from regraph.files import write_json, write_lines
from regraph.heap import pin_heap
from regraph.models import save_checkpoint, load_checkpoint
from regraph.numerics import RmsProp, backward, constant, mean_all, mul, sub

try:
    import resource
except ImportError:  # not on every platform; faults then read 0
    resource = None

__all__ = [
    "BEST_CHECKPOINT",
    "LOSS_TRACE",
    "REPORT_FILE",
    "TrainConfig",
    "TrainReport",
    "mse_loss",
    "split_validation",
    "train",
    "val_rmse",
]

BEST_CHECKPOINT = "checkpoint_best.ckpt"
LOSS_TRACE = "loss_trace.csv"
REPORT_FILE = "train_report.json"


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one training run.

    learning_rate may be zero, which turns every update into a null step;
    useful for harness checks even though real runs want it positive.
    """

    epochs: int
    horizons: tuple[int, ...]
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    shuffle: bool = True
    patience: int = 20
    checkpoint_every: int = 0
    grad_clip_norm: float | None = 5.0
    val_fraction: float = 0.1
    rmsprop_decay: float = 0.99
    rmsprop_smoothing: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not self.learning_rate >= 0:
            raise ConfigError("learning_rate must be non-negative")
        if not 0 <= self.weight_decay <= 1:
            raise ConfigError(f"weight_decay must lie in [0, 1], got {self.weight_decay!r}")
        if self.seed < 0:
            raise ConfigError(f"train seed must be non-negative, got {self.seed}")
        if not (0.0 < self.rmsprop_decay < 1.0):
            raise ConfigError("rmsprop_decay must lie in (0, 1)")
        if not self.rmsprop_smoothing > 0:
            raise ConfigError("rmsprop_smoothing must be positive")
        if self.patience < 0:
            raise ConfigError("patience must be non-negative")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be non-negative")
        if self.grad_clip_norm is not None and not self.grad_clip_norm > 0:
            raise ConfigError("grad_clip_norm must be positive or None")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError("val_fraction must lie in (0, 1)")
        horizons = tuple(int(h) for h in self.horizons)
        if not horizons or any(h < 1 for h in horizons):
            raise ConfigError("horizons must be a nonempty list of positive steps")
        if tuple(sorted(set(horizons))) != horizons:
            raise ConfigError("horizons must be strictly increasing")
        object.__setattr__(self, "horizons", horizons)


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch trajectory plus the best-checkpoint bookkeeping."""

    train_loss: tuple[float, ...]
    val_rmse: tuple[tuple[float, ...], ...]
    horizons: tuple[int, ...]
    epoch_seconds: tuple[float, ...]
    epoch_minor_faults: tuple[int, ...]
    best_epoch: int
    best_score: float
    has_validation: bool
    stopped_early: bool
    checkpoint_name: str
    train_weeks: tuple[str, ...]

    def to_json_dict(self) -> dict:
        # wall-clock timings and fault counts are excluded so the file is
        # run-to-run identical
        return {
            "train_loss": list(self.train_loss),
            "val_rmse": {
                f"h{h}": [epoch[j] for epoch in self.val_rmse]
                for j, h in enumerate(self.horizons)
            },
            "horizons": list(self.horizons),
            "best_epoch": self.best_epoch,
            "best_score": self.best_score,
            "has_validation": self.has_validation,
            "stopped_early": self.stopped_early,
            "checkpoint": self.checkpoint_name,
            "train_weeks": list(self.train_weeks),
        }


def mse_loss(predicted, target):
    """Mean over every entry of the squared prediction error."""
    diff = sub(predicted, target)
    return mean_all(mul(diff, diff))


def split_validation(samples, val_fraction: float = 0.1):
    """Hold out the most recent fraction of samples for validation.

    Returns (fit_samples, val_samples), both ordered by anchor time. With a
    single sample the validation list is empty; otherwise at least one sample
    is held out and at least one is kept for fitting.
    """
    ordered = sorted(samples, key=lambda s: s.anchor_time)
    if len(ordered) < 2:
        return ordered, []
    n_val = max(1, int(round(len(ordered) * val_fraction)))
    if n_val >= len(ordered):
        n_val = len(ordered) - 1
    return ordered[:-n_val], ordered[-n_val:]


def _minor_faults() -> int:
    """Minor page faults this process has taken so far (0 without ``resource``)."""
    return 0 if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def val_rmse(model, samples, lo, hi) -> tuple[float, ...]:
    """RMSE per horizon of the model on raw samples, scaled by (lo, hi)."""
    preds, truths = predict_samples(model, samples, lo, hi)
    sq = np.zeros(model.spec.n_horizons)
    count = 0
    for pred, truth in zip(preds, truths):
        err = pred - truth
        sq += np.sum(err * err, axis=0)
        count += err.shape[0]
    return tuple(float(np.sqrt(v / count)) for v in sq)


# ``train`` validates through this module-level name, which perfbench's
# tracer wraps to time validation.
_val_rmse = val_rmse


def _write_trace(path, report: TrainReport) -> None:
    cols = ["epoch", "train_loss"]
    if report.has_validation:
        cols += [f"val_rmse_h{h}" for h in report.horizons]
    lines = [",".join(cols)]
    for i, loss in enumerate(report.train_loss):
        row = [str(i + 1), repr(loss)]
        if report.has_validation:
            row += [repr(v) for v in report.val_rmse[i]]
        lines.append(",".join(row))
    write_lines(path, lines)


def train(model, samples, cfg: TrainConfig, out_dir):
    """Fit the model on windowed samples; returns (best bundle, report).

    Scaling parameters are computed over all provided samples and stored in
    every checkpoint. The model is left holding the best-epoch weights.
    """
    samples = list(samples)
    if not samples:
        raise ConfigError("training requires at least one sample")
    k = samples[0].k
    if model.spec.k != k:
        raise ConfigError(
            f"model expects {model.spec.k} input steps, samples carry {k}")
    grid = samples[0].grid
    if grid is not None and grid.step_min != model.spec.grid_step_min:
        raise ConfigError(f"model reads a {model.spec.grid_step_min}-minute grid, "
                          f"samples carry {grid.step_min}-minute steps")
    if tuple(model.spec.horizons) != tuple(samples[0].horizons):
        raise ConfigError(
            f"model horizons {model.spec.horizons} do not match "
            f"sample horizons {tuple(samples[0].horizons)}")
    if tuple(cfg.horizons) != tuple(model.spec.horizons):
        raise ConfigError(
            f"config horizons {cfg.horizons} do not match model "
            f"horizons {model.spec.horizons}")

    out_dir = Path(out_dir)
    pin_heap()

    lo, hi = compute_scaling(samples)
    train_weeks = tuple(
        week_label(w) for w in sorted({w for s in samples for w in s.weeks}))

    fit, val = split_validation(samples, cfg.val_fraction)
    has_val = bool(val)

    optimizer = RmsProp(model.params(), learning_rate=cfg.learning_rate,
                        weight_decay=cfg.weight_decay,
                        decay_rate=cfg.rmsprop_decay,
                        smoothing=cfg.rmsprop_smoothing,
                        clip_norm=cfg.grad_clip_norm)
    rng = np.random.default_rng(cfg.seed)
    best_path = out_dir / BEST_CHECKPOINT

    losses: list[float] = []
    val_curve: list[tuple[float, ...]] = []
    seconds: list[float] = []
    faults: list[int] = []
    best_score = np.inf
    best_epoch = 0
    since_best = 0
    stopped_early = False

    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        faults_before = _minor_faults()
        order = np.arange(len(fit))
        if cfg.shuffle:
            rng.shuffle(order)
        total = 0.0
        for step, idx in enumerate(order, start=1):
            # scaled in the step that uses it, so no scaled copy of the fit set is held
            sample = apply_scaling(fit[idx], lo, hi)
            # a diverged model overflows here: the finiteness check reports it, not NumPy
            with np.errstate(over="ignore", invalid="ignore"):
                loss = mse_loss(model.forward(sample.inputs), constant(sample.targets))
            value = float(loss.values)
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, step {step}")
            backward(loss)
            optimizer.step()
            total += value
        losses.append(total / len(fit))

        if has_val:
            with np.errstate(over="ignore", invalid="ignore"):
                rmse = _val_rmse(model, val, lo, hi)
            if not all(np.isfinite(rmse)):
                raise NumericError(f"non-finite validation RMSE at epoch {epoch}")
            val_curve.append(rmse)
            score = float(np.mean(rmse))
        else:
            score = losses[-1]

        if score < best_score:
            best_score = score
            best_epoch = epoch
            since_best = 0
            save_checkpoint(best_path, model, lo, hi, train_weeks)
        else:
            since_best += 1

        if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            save_checkpoint(out_dir / f"checkpoint_epoch_{epoch:04d}.ckpt",
                            model, lo, hi, train_weeks)

        seconds.append(time.perf_counter() - started)
        faults.append(_minor_faults() - faults_before)

        if has_val and cfg.patience and since_best >= cfg.patience:
            stopped_early = True
            break

    report = TrainReport(
        train_loss=tuple(losses),
        val_rmse=tuple(val_curve),
        horizons=cfg.horizons,
        epoch_seconds=tuple(seconds),
        epoch_minor_faults=tuple(faults),
        best_epoch=best_epoch,
        best_score=best_score,
        has_validation=has_val,
        stopped_early=stopped_early,
        checkpoint_name=BEST_CHECKPOINT,
        train_weeks=train_weeks,
    )
    write_json(out_dir / REPORT_FILE, report.to_json_dict())
    _write_trace(out_dir / LOSS_TRACE, report)

    bundle = load_checkpoint(best_path)
    model.load_state(bundle.weights)
    return bundle, report
