"""Metrics and report generation for trained forecasters."""

from regraph.evaluation import metrics, reports
from regraph.evaluation.metrics import *  # noqa: F403
from regraph.evaluation.reports import *  # noqa: F403

__all__ = metrics.__all__ + reports.__all__
