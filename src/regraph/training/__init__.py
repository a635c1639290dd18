"""Model fitting: loss, validation split, and the epoch loop."""

from regraph.training.loop import (
    BEST_CHECKPOINT,
    LOSS_TRACE,
    REPORT_FILE,
    TrainConfig,
    TrainReport,
    mse_loss,
    split_validation,
    train,
)

__all__ = [
    "BEST_CHECKPOINT",
    "LOSS_TRACE",
    "REPORT_FILE",
    "TrainConfig",
    "TrainReport",
    "mse_loss",
    "split_validation",
    "train",
]
