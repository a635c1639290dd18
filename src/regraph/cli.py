"""Command-line surface: synth, build-graph, train, predict, evaluate, analyze-graph.

Every command exits 0 on success, 2 on configuration or schema problems, and
3 on data problems or an output file it cannot write. All randomness is
derived from config seeds, so reruns with identical inputs produce identical
bytes; wall-clock timestamps are confined to meta.json.
"""

import argparse
import dataclasses
import json
import sys
import warnings
from datetime import datetime
from pathlib import Path

import numpy as np

from regraph.config import (
    load_config,
    model_spec_from,
    train_config_from,
    synth_config_from,
)
from regraph.data import (
    generate_synthetic,
    interpolate_to_grid,
    load_records,
    make_windows,
    split_by_weeks,
)
from regraph.errors import ConfigError, DataError, NumericError
from regraph.evaluation import (
    evaluate_model,
    generality_inference,
    metric_rows,
    predict_samples,
    write_comparison_json,
    write_metrics_csv,
    write_timeseries,
)
from regraph.files import read_json, stored, write_json, write_lines
from regraph.graph import (
    build_connected,
    decompose_random,
    decompose_regional,
    default_provider,
    load_sites,
    overlap_cost,
)
from regraph.models import build_model, load_checkpoint, restore_model
from regraph.models.checkpoint import graph_payload, partition_payload, read_graph_document
from regraph.training import BEST_CHECKPOINT, REPORT_FILE, split_validation, train, val_rmse

__all__ = ["main"]

RESOLVED_CONFIG = "resolved_config.json"
META_FILE = "meta.json"


def _now() -> str:
    return datetime.now().isoformat(timespec="seconds")


def _write_meta(out_dir: Path, command: str, started: str, extra=None) -> None:
    meta = {"command": command, "started": started, "finished": _now()}
    if extra:
        meta.update(extra)
    write_json(out_dir / META_FILE, meta)


def _echo_config(out_dir: Path, resolved: dict, args: dict) -> None:
    write_json(out_dir / RESOLVED_CONFIG, {"args": args, "config": resolved})


def _read_graph_file(path: Path):
    return read_graph_document(read_json(path, "graph file"), f"graph file {path}")


def _check_sites(data_dir: Path, nodes) -> None:
    """The data directory's sites must be the graph's nodes, metadata and all."""
    sites = load_sites(data_dir / "sites.csv")
    by_id = {s.site_id: s for s in sites}
    wanted = [n.site_id for n in nodes]
    missing = sorted(set(wanted) - set(by_id))
    extra = sorted(set(by_id) - set(wanted))
    if missing or extra:
        raise DataError(
            f"sites in {data_dir} do not match the graph: "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}")
    for node in nodes:
        if by_id[node.site_id] != node:
            raise DataError(
                f"site {node.site_id} metadata differs between {data_dir} "
                f"and the graph")


def _grid_for_nodes(data_dir: Path, nodes, spec):
    """The feature grid the model of ``spec`` reads, with sites ordered like
    its node list."""
    _check_sites(data_dir, nodes)
    records = load_records(data_dir / "records.csv")
    return interpolate_to_grid(records, list(nodes), spec.grid_step_min, spec.max_gap_steps)


# ---------------------------------------------------------------- commands

def _cmd_synth(args) -> int:
    started = _now()
    resolved = load_config(args.config)
    out = Path(args.out)
    generate_synthetic(synth_config_from(resolved), out)
    _echo_config(out, resolved, {"config": str(args.config), "out": str(args.out)})
    _write_meta(out, "synth", started)
    return 0


def _cmd_build_graph(args) -> int:
    sites = load_sites(Path(args.sites))
    provider = default_provider()
    graph = build_connected(sites, provider,
                            threshold_miles=args.threshold_miles,
                            adjacency_weights=args.weights,
                            sigma_miles=args.sigma_miles)
    partition = None
    if args.strategy == "regional":
        partition = decompose_regional(graph)
    elif args.strategy == "random":
        if args.regions is None:
            raise ConfigError("--regions is required for the random strategy")
        partition = decompose_random(graph, r=args.regions, seed=args.seed, provider=provider)
    write_json(args.out, {
        "graph": graph_payload(graph),
        "partition": None if partition is None else partition_payload(partition),
    })
    return 0


def _split_from_config(data_cfg: dict, grid, spec):
    samples = make_windows(grid, spec.k, spec.horizons, spec.grid_step_min)
    return split_by_weeks(samples, data_cfg["train_weeks"],
                          data_cfg["test_weeks"], data_cfg["generality_weeks"])


def _cmd_train(args) -> int:
    started = _now()
    resolved = load_config(args.config)
    graph, partition = _read_graph_file(Path(args.graph))
    spec = model_spec_from(resolved)
    grid = _grid_for_nodes(Path(args.data), graph.nodes, spec)
    train_samples, _, _ = _split_from_config(resolved["data"], grid, spec)
    if not train_samples:
        raise DataError("no training samples fall inside train_weeks")

    if spec.connectivity == "connected":
        partition = None  # connected models ignore any stored partition
    model = build_model(spec, graph, partition)
    train_cfg = train_config_from(resolved)

    # the first write: an unusable --out fails here, before any epoch runs
    out = Path(args.out)
    _echo_config(out, resolved, {"config": str(args.config),
                                 "data": str(args.data),
                                 "graph": str(args.graph),
                                 "out": str(args.out)})
    _, report = train(model, train_samples, train_cfg, out)
    _write_meta(out, "train", started,
                {"epoch_seconds": list(report.epoch_seconds),
                 "epoch_minor_faults": list(report.epoch_minor_faults),
                 "epochs_run": len(report.train_loss)})
    return 0


def _restore(path: Path):
    """A checkpoint's model, and its bundle without the weights the model now holds."""
    bundle = load_checkpoint(path)
    model = restore_model(bundle)
    return model, dataclasses.replace(bundle, weights={})


def _cmd_predict(args) -> int:
    model, bundle = _restore(Path(args.checkpoint))
    spec = bundle.spec
    grid = _grid_for_nodes(Path(args.data), bundle.graph.nodes, spec)
    samples = make_windows(grid, spec.k, spec.horizons, spec.grid_step_min)
    preds, _ = predict_samples(model, samples, bundle.scaling_lo,
                               bundle.scaling_hi)
    header = ["site_id", "anchor_time"] + [
        f"pred_h{h * spec.grid_step_min}" for h in spec.horizons]
    lines = [",".join(header)]
    site_ids = [n.site_id for n in bundle.graph.nodes]
    for s_idx, sample in enumerate(samples):
        anchor = sample.anchor_time.isoformat()  # a grid window works it out on each read
        for i, sid in enumerate(site_ids):
            row = [sid, anchor]
            row += [repr(float(v)) for v in preds[s_idx, i]]
            lines.append(",".join(row))
    write_lines(args.out, lines)
    return 0


def _run_name(run_dir: Path) -> str:
    return run_dir.name or run_dir.resolve().name


# The sections and keys of a run's config echo that evaluate reads.
_RUN_KEYS = {"data": ("train_weeks", "test_weeks", "generality_weeks"),
             "train": ("seed", "val_fraction")}


def _read_run(run: Path):
    """A run's data directory, the config echo sections evaluate reads, and
    the validation RMSE its train report states (None without validation)."""
    cfg_path, report_path = run / RESOLVED_CONFIG, run / REPORT_FILE
    echo = read_json(cfg_path, "run config")
    report = read_json(report_path, "train report")
    with stored(f"run config {cfg_path}"):
        data_dir = Path(echo["args"]["data"])
        resolved = {section: {key: echo["config"][section][key] for key in keys}
                    for section, keys in _RUN_KEYS.items()}
    with stored(f"train report {report_path}"):
        reported = report["best_score"] if report.get("has_validation") else None
    return data_dir, resolved, reported


def _cmd_evaluate(args) -> int:
    started = _now()
    out = Path(args.out)
    rows = []
    summaries = {}
    overlap_costs = {}
    grid_key = grid = None  # consecutive runs over the same grid read records.csv once
    for run in (Path(r) for r in args.runs):
        name = _run_name(run)
        ckpt_path = run / BEST_CHECKPOINT
        cfg_path = run / RESOLVED_CONFIG
        if not ckpt_path.exists() or not cfg_path.exists():
            print(f"warning: skipping {run}: missing checkpoint or config",
                  file=sys.stderr)
            summaries[name] = {"status": "absent"}
            continue
        data_dir, resolved, val_reported = _read_run(run)
        model, bundle = _restore(ckpt_path)
        spec = bundle.spec
        key = (data_dir.resolve(), bundle.graph.nodes, spec.grid_step_min, spec.max_gap_steps)
        if key == grid_key:
            _check_sites(data_dir, bundle.graph.nodes)
        else:
            grid, grid_key = _grid_for_nodes(data_dir, bundle.graph.nodes, spec), key
        # the checkpoint's model fixes the grid, the window length and horizons
        train_s, test_s, gen_s = _split_from_config(resolved["data"], grid, spec)
        if not test_s:
            raise DataError(f"run {run}: no samples fall inside test_weeks")

        seed = resolved["train"]["seed"]
        report = evaluate_model(model, test_s, bundle.scaling_lo, bundle.scaling_hi)
        rows += metric_rows(spec.architecture, spec.connectivity, seed, report)

        write_timeseries(out / f"timeseries_{name}.csv", test_s, report)

        summary = {"status": "ok", "architecture": spec.architecture,
                   "connectivity": spec.connectivity, "seed": seed,
                   "test_samples": len(test_s)}
        if val_reported is not None:
            _, val_raw = split_validation(
                train_s, resolved["train"]["val_fraction"])
            if val_raw:
                check = float(np.mean(val_rmse(model, val_raw, bundle.scaling_lo,
                                               bundle.scaling_hi)))
                summary["val_rmse_check"] = check
                summary["val_rmse_reported"] = val_reported
        if gen_s:
            gen_report = generality_inference(model, bundle, gen_s)
            summary["generality"] = {
                str(gen_report.horizon_minutes(h)): gen_report.metrics[h].as_row()
                for h in gen_report.horizons}
            summary["generality_samples"] = len(gen_s)
        summaries[name] = summary

        l_avg = float(np.mean(bundle.graph.degrees))
        overlap_costs.setdefault("connected", overlap_cost(bundle.graph, l_avg))
        if bundle.partition is not None:
            overlap_costs.setdefault(
                bundle.partition.strategy, overlap_cost(bundle.partition, l_avg))

    if rows:
        write_metrics_csv(out / "metrics.csv", rows)
        write_comparison_json(out / "comparison.json", rows,
                              overlap_costs=overlap_costs,
                              literal_headline=args.literal_eq14)
    write_json(out / "evaluation.json", summaries)
    _write_meta(out, "evaluate", started)
    return 0


def _cmd_analyze_graph(args) -> int:
    graph, partition = _read_graph_file(Path(args.graph))
    l_avg = float(np.mean(graph.degrees))
    doc = {
        "nodes": graph.n,
        "edges": len(graph.ends),
        "degree": {"min": int(graph.degrees.min()), "max": int(graph.degrees.max()),
                   "mean": l_avg},
        "overlap_cost": {"connected": overlap_cost(graph, l_avg)},
    }
    if partition is not None:
        groups = {label: partition.subgraphs[label].n
                  for label in partition.region_order}
        # Construction guarantees degree monotonicity, and a stored partition
        # is rebuilt from its labels on load.
        doc["partition"] = {
            "strategy": partition.strategy,
            "groups": groups,
            "degree_monotone": True,
            "violations": 0,
        }
        doc["overlap_cost"][partition.strategy] = overlap_cost(partition, l_avg)
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        write_json(args.out, doc)
    return 0


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regraph",
        description="Truck-parking occupancy forecasting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("build-graph", help="build the site graph and partition")
    p.add_argument("--sites", required=True)
    p.add_argument("--strategy", required=True,
                   choices=("connected", "random", "regional"))
    p.add_argument("--regions", type=int, default=None,
                   help="group count for the random strategy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold-miles", type=float, default=40.0)
    p.add_argument("--weights", choices=("gaussian", "binary", "raw"),
                   default="gaussian")
    p.add_argument("--sigma-miles", type=float, default=20.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_build_graph)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="frozen inference from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("evaluate", help="metrics and comparison over run dirs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--literal-eq14", action="store_true",
                   help="headline the squared-numerator metric reading")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("analyze-graph",
                       help="degrees, partition check, overlap costs")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_analyze_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
