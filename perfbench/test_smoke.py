"""Smoke test of the benchmark: every workload at toy size, in seconds.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {"n_sites": 24, "n_regions": 4, "hidden": 8}
TOY_DAYS = {"train": 8, "infer": 1}   # 2024-W01 plus one day of W02; one day


@pytest.fixture
def toy(monkeypatch):
    small = {name: dataclasses.replace(wl, days=TOY_DAYS[wl.kind], **TOY)
             for name, wl in W.WORKLOADS.items()}
    monkeypatch.setattr(W, "WORKLOADS", small)
    return small


def run(name: str, trace: int, out: Path, capsys) -> tuple[int, dict]:
    args = Namespace(workload=name, seed=3, seconds=0.2, trace=trace)
    code = harness.main(args, ROOT, out)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(toy, tmp_path, capsys, name, trace):
    code, result = run(name, trace, tmp_path, capsys)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_self_times_add_up_to_the_round(toy, tmp_path, capsys):
    run("train-regional-105", 1, tmp_path, capsys)
    doc = json.loads((tmp_path / "results" / "train-regional-105-seed3-trace1.json").read_text())
    layers = doc["layers"]
    assert sum(layers["self_s"].values()) == pytest.approx(layers["wall_s"], rel=1e-9)
    assert layers["tape_entries"] == [doc["counts"]["tape_entries_per_step"]]
    assert layers["unpatched"] == []


def test_nan_predictions_fail_the_inference_check(toy, tmp_path, capsys, monkeypatch):
    original = W.eval_reports.predict_samples

    def corrupted(*args, **kwargs):
        preds, truths = original(*args, **kwargs)
        preds = preds.copy()
        preds[0, 0, 0] = math.nan
        return preds, truths

    monkeypatch.setattr(W.eval_reports, "predict_samples", corrupted)
    code, result = run("infer-regional-1k", 0, tmp_path, capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_diverged_validation_fails_the_train_check(toy, tmp_path, capsys, monkeypatch):
    original = W.train

    def diverged(*args, **kwargs):
        bundle, report = original(*args, **kwargs)
        return bundle, dataclasses.replace(report, val_rmse=((318.0,) * 4,))

    monkeypatch.setattr(W, "train", diverged)
    code, result = run("train-connected-105", 0, tmp_path, capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.summarize([1.0] * 19)["tail_percentile"] is None
    assert harness.summarize([1.0] * 20)["tail_percentile"] == 50.0
    rates = [float(i) for i in range(1, 101)]
    summary = harness.summarize(rates, higher_is_better=True)
    assert summary["tail_percentile"] == 90.0
    assert summary["tail"] < summary["median"]


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    times = tr.self_times(0)
    outer = tr.spans[0]
    assert times["outer"] + times["inner"] == pytest.approx(outer.end - outer.start)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
