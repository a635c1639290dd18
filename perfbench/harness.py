"""Run loop, statistics, provenance and output of the regraph benchmark."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as W
from tracer import NullTracer, Patches, Tracer

HERE = Path(__file__).resolve().parent
NULL = NullTracer()
MIN_OPS = 3          # measured operations per run, even past the deadline
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "windows_per_s": "windows/s",
    "peak_rss_mb": "MB",
}
# Printed and checked, but not a bounded metric: it is exact for a seed, and
# its spread across seeds (the data change) is far wider than any bound.
ACCURACY = ("rmse_30min", "rate")
# Per-layer self time is reported as a share of the traced round, so a layer
# a workload never enters reads 0 % rather than a constant time.
LAYERS = (
    "graph.build.load_sites",
    "graph.build.build_connected",
    "graph.distance.miles",
    "graph.build.decompose",
    "data.ingest.load_records",
    "data.frames.interpolate",
    "data.windows.make_windows",
    "data.windows.split",
    "data.windows.scaling",
    "models.architectures.build_model",
    "models.architectures.forward",
    "models.architectures.regional_embedding",
    "models.architectures.predict",
    "models.layers",
    "models.checkpoint.save",
    "models.checkpoint.load",
    "numerics.tensor.backward",
    "numerics.optim.step",
    "training.loop.self",
    "training.loop.validation",
    "evaluation.reports.evaluate_self",
    "evaluation.reports.predict_samples",
    "evaluation.metrics.metrics",
    "trace.unattributed",
)
# The span around a whole round; its self time is the benchmark's own glue.
ROUND = "trace.unattributed"


class Timer:
    """Wall time of the last ``with`` block."""

    elapsed = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._start
        return False


class Tally:
    """Operations attempted and failed; a failure is logged, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, fn, *args):
        """``fn(*args)`` as one operation; None when it fails."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            self._failed(1, exc)
        return None

    def fail(self, count: int, exc: Exception) -> None:
        """``count`` operations that could not run or be checked."""
        self.attempted += count
        self._failed(count, exc)

    def _failed(self, count: int, exc: Exception) -> None:
        if isinstance(exc, W.CheckFailed):
            message = f"check failed: {exc}"
        else:
            traceback.print_exception(exc, file=sys.stderr)
            message = f"{type(exc).__name__}: {exc}"
        W.clear_tape()  # a forward that raised leaves its entries behind
        self.failed += count
        self.failures.append(message)
        print(f"operation {self.attempted} failed: {message}", file=sys.stderr)


def summarize(samples: list[float], higher_is_better: bool = False) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples),
           "tail_percentile": None, "tail": None, "samples": list(samples)}
    for p in TAIL_LADDER:
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            q = 100.0 - p if higher_is_better else p
            out["tail_percentile"] = p
            out["tail"] = float(np.percentile(samples, q))
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ runs

def run_workload(wl: W.Workload, inputs: W.Inputs, seconds: float, trace: bool) -> dict:
    """Rounds of set-up and one operation until ``seconds`` have passed.

    A round times ``wl.setups_per_op`` set-ups and runs its operation on the
    last, so ``setup_s`` gets about ten samples in a run even where an
    operation costs more than a set-up. A warm-up round comes first and is
    not reported. With ``trace``, rounds alternate between untraced and
    traced, and the untraced ones give the baseline for the tracing overhead;
    traced runs time one set-up per round.
    """
    tally = Tally()
    tracer = Tracer() if trace else None
    probe = W.TraceProbe(tracer) if trace else None
    runner = W.Runner(wl, inputs)
    base = Patches()
    if wl.kind == "infer":
        runner.install_capture(base)
    held = {"state": None, "counts": None}
    checked: list[W.OpResult] = []
    setup_s: list[float] = []
    rates: list[float] = []
    untraced_wall: list[float] = []
    traced_rounds: list[int] = []

    def setup_only() -> None:
        """One more timed set-up, checked, with no operation after it."""
        held["state"] = None   # free the last round's windows and model first
        gc.collect()
        try:
            start = time.perf_counter()
            state = W.setup(wl, inputs, NULL)
            elapsed = time.perf_counter() - start
            W.check_setup(wl, state, held["counts"])
        except Exception as exc:  # a broken set-up fails like an operation
            tally.fail(1, exc)
            return
        setup_s.append(elapsed)

    def round_(traced: bool) -> None:
        held["state"] = None
        gc.collect()
        tr = tracer if traced else NULL
        patches = Patches()
        timer = Timer()
        if traced:
            tracer.round += 1   # a failed traced round's spans keep their own id
            probe.install_global(patches)
        try:
            start = time.perf_counter()
            with tr.span(ROUND):
                state = W.setup(wl, inputs, tr)
                ready = time.perf_counter()
                if traced:
                    probe.install_model(patches, type(state.model))
                outcome = runner.run(state, tr, timer)
            wall = time.perf_counter() - start
            held["state"] = state
            counts = W.check_setup(wl, state, held["counts"])
            held["counts"] = held["counts"] or counts
        except Exception as exc:  # set-up or the operation broke: the operation fails
            tally.fail(1, exc)
            return
        finally:
            patches.restore()
        result = tally.attempt(runner.check, state, outcome)
        if result is None:
            return
        checked.append(result)
        if traced:
            traced_rounds.append(tracer.round)
        else:
            untraced_wall.append(wall)
            setup_s.append(ready - start)
            rates.append(result.windows / timer.elapsed)

    def enough() -> bool:
        if trace:
            return bool(untraced_wall) and bool(traced_rounds)
        return len(rates) >= MIN_OPS

    round_(False)   # warm-up round, not reported
    peak = peak_rss_mb()   # after one round: later rounds repeat the same work
    for samples in (setup_s, rates, untraced_wall):
        samples.clear()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not enough()) and tally.failed <= 2 * MIN_OPS:
        if not trace:
            for _ in range(wl.setups_per_op - 1):
                setup_only()
        round_(trace and len(untraced_wall) > len(traced_rounds))
    base.restore()
    state = held["state"]
    if state is None:
        raise RuntimeError("no set-up succeeded")
    counts = W.check_setup(wl, state, None)
    counts.update(_run_counts(wl, state, inputs, tally))
    counts["checkpoint_bytes"] = max([r.checkpoint_bytes for r in checked]
                                     + [counts.get("checkpoint_bytes", 0)])
    if trace:   # a taped forward at 1k sites takes seconds: traced runs only
        counts["tape_entries_per_step"] = W.tape_entries(state)
    held["state"] = state = None

    metrics = {}
    if setup_s:
        metrics["setup_s"] = summarize(setup_s)
    if rates:
        metrics["windows_per_s"] = summarize(rates, higher_is_better=True)
    rmse = [r.rmse_30min for r in checked if r.reference]
    if rmse:
        metrics["rmse_30min"] = summarize(rmse)
    metrics["peak_rss_mb"] = summarize([peak])
    out = {"tally": tally, "metrics": metrics, "counts": counts}
    if trace:
        out["tracer"] = tracer
        out["layers"] = layer_table(wl, tracer, traced_rounds, untraced_wall, probe, counts)
    return out


def _run_counts(wl, state, inputs, tally) -> dict:
    """Bytes held by the windows of a set-up and by the scaled copies one
    operation makes, checkpoint size (infer), and the overlap costs."""
    op = state.samples if wl.kind == "train" else state.samples[:W.EVAL_CHUNK]
    counts = {"op_scaled_bytes": W.sample_bytes(op)}
    counts["sample_bytes"] = W.sample_bytes(state.windows) + counts["op_scaled_bytes"]
    if wl.kind == "infer":
        counts["checkpoint_bytes"] = inputs.checkpoint.stat().st_size
    counts.update(tally.attempt(W.graph_counts, wl, state, inputs) or {})
    return counts


def layer_table(wl, tracer, rounds, untraced, probe, counts) -> dict:
    """Mean self seconds per layer and round; they sum to the traced round's wall time.
    Steps, saves and scaled bytes are per operation."""
    if not rounds:
        return {}
    ops = len(rounds)   # one operation per round
    seconds = {name: 0.0 for name in LAYERS}
    wall = 0.0
    for r in rounds:
        for name, value in tracer.self_times(r).items():
            seconds[name] = seconds.get(name, 0.0) + value / len(rounds)
        root = next(s for s in tracer.spans if s.round == r and s.name == ROUND)
        wall += (root.end - root.start) / len(rounds)
    steps, last_forward = [], None
    saves = 0
    for s in tracer.spans:
        if s.round not in rounds:
            continue
        if s.name == "models.architectures.forward":
            last_forward = s.start
        elif s.name == "numerics.optim.step" and last_forward is not None:
            steps.append((s.end - last_forward) * 1e3)
            last_forward = None
        elif s.name == "models.checkpoint.save":
            saves += 1
    base = statistics.mean(untraced) if untraced else float("nan")
    tape = probe.tape_entries or [counts["tape_entries_per_step"]]
    return {
        "rounds": len(rounds),
        "wall_s": wall,
        "untraced_wall_s": base,
        "overhead_s": wall - base,
        "self_s": seconds,
        "steps_per_op": len(steps) / ops,
        "step_ms": summarize(steps) if steps else None,
        "saves_per_op": saves / ops,
        "tape_entries": sorted(set(tape)),
        "scaled_bytes_per_op": probe.scaled_bytes / ops,
        "unpatched": sorted(set(probe.missing)),
    }


# ------------------------------------------------------------- provenance

def git_commit(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(root: Path, seed: int) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
        "src_lines": src_lines,
    }


# ----------------------------------------------------------------- output

def describe(summary: dict, unit: str) -> str:
    if summary["n"] == 1:
        return f"{summary['median']:.6g} {unit} (one measurement)"
    text = f"{summary['median']:.6g} {unit} (median, n={summary['n']}"
    if summary["tail_percentile"] is None:
        text += "; tail: none, needs n >= 20"
    else:
        text += f"; p{summary['tail_percentile']:g} worst side {summary['tail']:.6g}"
    return text + ")"


ALIASES = {("train", "windows_per_s"): "train_windows_per_s",
           ("infer", "windows_per_s"): "predict_windows_per_s",
           ("train", "rmse_30min"): "val_rmse_30min"}


def report_untraced(wl, result) -> dict:
    metrics = {}
    for name, unit in [*END_TO_END.items(), ACCURACY]:
        summary = result["metrics"].get(name)
        if summary is None:
            print(f"  {name:<16} missing: every operation failed")
            continue
        alias = ALIASES.get((wl.kind, name))
        label = f"{name} [{alias}]" if alias else name
        print(f"  {label:<38} {describe(summary, unit)}")
        if name in END_TO_END:
            metrics[name] = {"value": summary["median"], "unit": unit}
    return metrics


def report_traced(wl, result) -> dict:
    layers, counts = result["layers"], result["counts"]
    wall = layers["wall_s"]
    print(f"  traced rounds {layers['rounds']}: {wall:.4f} s per round traced, "
          f"{layers['untraced_wall_s']:.4f} s untraced, "
          f"overhead {layers['overhead_s']:+.4f} s")
    print(f"  {'layer (self time per round)':<44} {'seconds':>10} {'share':>8}")
    total = 0.0
    for name in LAYERS:
        value = layers["self_s"].get(name, 0.0)
        total += value
        print(f"  {name:<44} {value:>10.4f} {100 * value / wall:>7.2f}%")
    print(f"  {'sum = traced wall':<44} {total:>10.4f} {wall:>10.4f}")
    for name in sorted(set(layers["self_s"]) - set(LAYERS)):
        print(f"  warning: span {name} has no layer metric")
    if layers["unpatched"]:
        print(f"  warning: not traced, missing in the program: {layers['unpatched']}")
    step = layers["step_ms"]
    if step is not None:
        p50, p90 = np.percentile(step["samples"], [50, 90])
        print(f"  training.loop.step_ms_p50 {p50:.3f} ms, _p90 {p90:.3f} ms "
              f"(forward start to optimizer step end, n={step['n']})")
    metrics = {f"{name}_pct": {"value": 100.0 * layers["self_s"].get(name, 0.0) / wall,
                               "unit": "%"}
               for name in LAYERS}
    metrics.update({
        "trace.wall_s": {"value": wall, "unit": "s"},
        "trace.overhead_s": {"value": layers["overhead_s"], "unit": "s"},
        "trace.overhead_pct": {"value": 100.0 * layers["overhead_s"] / layers["untraced_wall_s"],
                               "unit": "%"},
        "training.loop.steps": {"value": layers["steps_per_op"], "unit": "count"},
        "models.checkpoint.saves": {"value": layers["saves_per_op"], "unit": "count"},
        "models.checkpoint.bytes": {"value": counts["checkpoint_bytes"], "unit": "bytes"},
        "numerics.tensor.tape_entries_per_step": {"value": counts["tape_entries_per_step"],
                                                  "unit": "count"},
        "graph.distance.calls": {"value": counts["provider_calls"], "unit": "count"},
        "graph.build.edges": {"value": counts["edges"], "unit": "count"},
        "data.ingest.records": {"value": counts["records"], "unit": "count"},
        "data.windows.windows": {"value": counts["windows"], "unit": "count"},
        "data.windows.sample_bytes": {"value": counts["sample_bytes"], "unit": "bytes"},
        "models.params": {"value": counts["params"], "unit": "count"},
        "graph.overlap_cost.connected": {"value": counts.get("overlap_cost_connected", 0.0),
                                         "unit": "cost"},
        "graph.overlap_cost.regional": {"value": counts.get("overlap_cost_regional", 0.0),
                                        "unit": "cost"},
    })
    return metrics


def check_trace_counts(result) -> list[str]:
    """Counts seen by the wrappers must equal the ones the benchmark computes."""
    layers, counts = result["layers"], result["counts"]
    problems = []
    if layers["tape_entries"] != [counts["tape_entries_per_step"]]:
        problems.append(f"taped forwards recorded {layers['tape_entries']} entries, "
                        f"tape_length() gives {counts['tape_entries_per_step']}")
    if layers["scaled_bytes_per_op"] != counts["op_scaled_bytes"]:
        problems.append(f"apply_scaling returned {layers['scaled_bytes_per_op']} bytes "
                        f"per operation, expected {counts['op_scaled_bytes']}")
    return problems


def main(args, root: Path, out: Path) -> int:
    if args.workload == "all":
        return run_all(args, out)
    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)} or all", file=sys.stderr)
        return 2
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work_dir = out / "work" / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    prov = provenance(root, args.seed)
    print(f"regraph benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  why: {wl.why}")
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"  weight_decay {W.WEIGHT_DECAY}: the README workaround; the schema default "
          f"diverges with one train week and is not claimed to train")
    try:
        work_dir.mkdir(parents=True, exist_ok=True)
        # Inputs are generated in a child process, so this process's memory
        # and caches hold only what the workload itself does.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
        subprocess.run([sys.executable, "-m", "workloads", json.dumps(dataclasses.asdict(wl)),
                        str(args.seed), str(work_dir)], env=env, check=True, timeout=600)
        inputs = W.load_inputs(wl, work_dir)
        result = run_workload(wl, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        result["tracer"].write(results_dir / f"{tag}-spans.jsonl")

    tally, counts = result["tally"], result["counts"]
    print(f"  counts: {json.dumps(counts, sort_keys=True)}")
    if args.trace:
        for problem in check_trace_counts(result):
            tally.failed += 1
            tally.attempted += 1
            tally.failures.append(problem)
            print(f"  check failed: {problem}")
        metrics = report_traced(wl, result)
    else:
        metrics = report_untraced(wl, result)
    correct = tally.failed == 0 and (args.trace or set(metrics) == set(END_TO_END))
    doc = {"workload": wl.name, "why": wl.why, "seconds": args.seconds, "trace": args.trace,
           "provenance": prov, "counts": counts, "failures": tally.failures,
           "summaries": result["metrics"], "layers": result.get("layers")}
    (results_dir / f"{tag}.json").write_text(json.dumps(doc, indent=2, sort_keys=True,
                                                        default=str) + "\n")
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, out: Path) -> int:
    """Every workload in its own process, then the regional / connected ratios."""
    script = HERE / "run.py"
    results = {}
    code = 0
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
        code = code or proc.returncode
    regional = results.get("train-regional-105", {}).get("metrics", {})
    connected = results.get("train-connected-105", {}).get("metrics", {})
    if "windows_per_s" in regional and "windows_per_s" in connected:
        doc = json.loads((out / "results" / f"train-regional-105-seed{args.seed}-trace0.json")
                         .read_text())
        costs = doc["counts"]
        ratio = regional["windows_per_s"]["value"] / connected["windows_per_s"]["value"]
        print(f"regional / connected at 105 sites: train throughput ratio {ratio:.4f} "
              f"(RegTGCN / TGCN windows/s); overlap-cost ratio "
              f"{costs['overlap_cost_regional'] / costs['overlap_cost_connected']:.4f} "
              f"({costs['overlap_cost_regional']:g} / {costs['overlap_cost_connected']:g})")
    print(json.dumps({
        "correct": all(r.get("correct") for r in results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r.get("metrics", {}).items()},
    }))
    return code
