import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest

from regraph.data import FeatureGrid, make_windows
from regraph.numerics import clear_tape

# filled by test_acceptance; echoed at the end of the terminal report
ACCEPTANCE_LINES: list[str] = []


WEEK_STEPS = 7 * 24 * 6  # 10-minute steps in a week


def sample(k=3, n=4, horizons=(1, 2), week=(2024, 1), seed=0):
    """The one window of a small 10-minute grid of seeded random features.

    Occupancy is uniform in [0.1, 0.9), calendar ids and site attributes in
    [0, 1). The window starts ``seed`` steps into ISO ``week`` (a (year,
    week) pair), wrapped so that every step it reads lies in that week.
    """
    steps = k + max(horizons)
    rng = np.random.default_rng(seed)
    start = datetime.fromisocalendar(*week, 1) + timedelta(
        minutes=10 * (seed % (WEEK_STEPS - steps + 1)))
    grid = FeatureGrid(start=start, step_min=10, occupancy=rng.uniform(0.1, 0.9, (steps, n)),
                       calendar=rng.uniform(0.0, 1.0, (steps, 3)),
                       attributes=rng.uniform(0.0, 1.0, (n, 4)), valid=np.ones(steps, dtype=bool))
    [window] = make_windows(grid, k, horizons)
    return window


# Windows that differ from ``sample()``'s defaults in one setting, with what a
# model of those defaults (k 3, horizons (1, 2), a 10-minute grid) says of them.
MISFITS = {
    "k": (lambda: sample(k=4, seed=9), "model expects 3 input steps, samples carry 4"),
    "horizons": (lambda: sample(horizons=(1, 3), seed=9),
                 r"model horizons \(1, 2\) do not match sample horizons \(1, 3\)"),
    "grid step": (lambda: make_windows(dataclasses.replace(sample(seed=9).grid, step_min=5),
                                       3, (1, 2), 5)[0],
                  "model reads a 10-minute grid, samples carry 5-minute steps"),
}


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
