"""regraph benchmark: one workload per run, or every workload with ``--workload all``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-regional-105 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The benchmark imports the package from the checkout's ``src/``. It prints a
human-readable report, writes the full result (provenance, exact counts,
checks, per-layer table) under ``.perfbench/results/``, and ends its standard
output with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def blas_threads() -> int:
    """BLAS threads for the run: every available core, at most two."""
    return min(2, len(os.sched_getaffinity(0)))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "regraph" / "__init__.py").is_file():
        print(f"error: no regraph package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when NumPy is first imported. Distances must
    # stay offline and uncached whatever the caller's environment holds.
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    for var in ("REGRAPH_ROUTING_URL", "REGRAPH_DISTANCE_CACHE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))

    import harness
    return harness.main(args, ROOT, OUT)


if __name__ == "__main__":
    sys.exit(main())
