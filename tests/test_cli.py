"""End-to-end tests for the command-line pipeline."""

import dataclasses
import gc
import json
import math
import re
import shlex
import shutil
import struct
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regraph import cli
from regraph import config as config_module
from regraph.cli import main
from regraph.config import (
    load_config,
    model_spec_from,
    resolve_config,
    synth_config_from,
    train_config_from,
)
from regraph.data import SyntheticConfig, interpolate_to_grid, load_records, make_windows
from regraph.errors import ConfigError
from regraph.graph import build_connected, decompose_random, decompose_regional, load_sites
from regraph.evaluation import predict_samples, reports
from regraph.models import (ARCHITECTURES, ModelSpec, build_model, load_checkpoint,
                            restore_model, save_checkpoint)
from regraph.models.architectures import CONNECTIVITY_OF
from regraph.models.checkpoint import graph_from_payload
from regraph.training import TrainConfig

BASE_SYNTH = {
    "n_sites": 6, "n_regions": 2, "days": 2, "seed": 11,
    "capacity_range": [20, 60],
}


def write_config(path, **overrides):
    cfg = {"data": {"synth": dict(BASE_SYNTH)}}
    for section, values in overrides.items():
        cfg.setdefault(section, {})
        for key, value in values.items():
            if isinstance(value, dict):
                cfg[section].setdefault(key, {}).update(value)
            else:
                cfg[section][key] = value
    path.write_text(json.dumps(cfg, indent=2))
    return path


# ------------------------------------------------------------ quick start

def quick_start():
    """The config and the ``regraph`` command lines of README's Quick start block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    config, commands = re.fullmatch(r"cat > config\.json << 'JSON'\n(.*?)\nJSON\n(.*)",
                                    block, re.S).groups()
    return json.loads(config), [shlex.split(line) for line in commands.splitlines() if line]


def test_the_readme_quick_start_runs(tmp_path, monkeypatch):
    config, commands = quick_start()
    config["train"]["epochs"] = 1
    config["model"]["hidden"] = 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert [argv[:2] for argv in commands] == [
        ["regraph", name] for name in ("synth", "build-graph", "train", "predict", "evaluate",
                                        "analyze-graph")]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "preds.csv").read_text().startswith(
        "site_id,anchor_time,pred_h10,pred_h30,pred_h120,pred_h360\n")
    assert (tmp_path / "eval" / "metrics.csv").exists()


# ----------------------------------------------------------------- config

def test_defaults_round_trip():
    cfg = resolve_config({})
    assert resolve_config(cfg) == cfg
    assert cfg["model"]["architecture"] == "RegTGCN"
    assert cfg["train"]["learning_rate"] == 1e-3


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="train.learning_rat"):
        resolve_config({"train": {"learning_rat": 0.1}})
    with pytest.raises(ConfigError, match="unknown config key: foo"):
        resolve_config({"foo": {}})
    with pytest.raises(ConfigError, match="data.synth.sites"):
        resolve_config({"data": {"synth": {"sites": 3}}})


@pytest.mark.parametrize("section", [
    {"graph": {"strategy": "random", "regions": 3, "threshold_miles": 1}},
    {"eval": {"literal_eq14": True}},
])
def test_graph_and_eval_sections_are_unknown_keys(section):
    # graph settings are build-graph flags; the headline is evaluate --literal-eq14
    with pytest.raises(ConfigError, match=f"unknown config key: {next(iter(section))}"):
        resolve_config(section)


def test_config_defaults_live_on_the_dataclasses():
    cfg = resolve_config({})
    assert set(cfg["data"]["synth"]) == {
        f.name for f in dataclasses.fields(SyntheticConfig)}
    assert set(cfg["train"]) == {
        f.name for f in dataclasses.fields(TrainConfig)} - {"horizons"}
    assert synth_config_from(cfg) == SyntheticConfig()
    assert train_config_from(cfg) == TrainConfig(epochs=100, horizons=(1, 3, 12, 36))
    assert resolve_config({"train": {"grad_clip_norm": None}})["train"]["grad_clip_norm"] is None


def test_int_for_a_float_key_reaches_the_dataclass_as_a_float(tmp_path):
    cfg = resolve_config({"data": {"synth": {"noise_level": 0}},
                          "train": {"learning_rate": 0}})
    noise = synth_config_from(cfg).noise_level
    rate = train_config_from(cfg).learning_rate
    assert (type(noise), noise, type(rate), rate) == (float, 0.0, float, 0.0)

    sidecars = []
    for i, noise_level in enumerate((0, 0.0)):
        path = write_config(tmp_path / f"cfg{i}.json",
                            data={"synth": {"noise_level": noise_level}})
        out = tmp_path / f"data{i}"
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 0
        sidecars.append((out / "synth_config.json").read_bytes())
    assert sidecars[0] == sidecars[1]
    assert b'"noise_level": 0.0' in sidecars[0]


# Each list element is checked against its field's item type, and a pair's
# length too; a JSON null is named as the schema names it. Run through the
# CLI, each config exits 2 naming the key.
MALFORMED_LISTS = [
    ({"horizons": ["a"]}, r"data\.horizons\[0\] has the wrong type: expected int, got str"),
    ({"horizons": [None]}, r"data\.horizons\[0\] has the wrong type: expected int, got null$"),
    ({"k": None}, r"data\.k has the wrong type: expected int, got null$"),
    ({"horizons": [1, True]}, r"data\.horizons\[1\] has the wrong type: expected int, got bool"),
    ({"synth": {"base_range": ["a", 1]}}, r"data\.synth\.base_range\[0\] has the wrong type"),
    ({"synth": {"base_range": [0.1, 0.2, 0.3]}}, r"data\.synth\.base_range must hold 2 items, got 3"),
    ({"synth": {"forced_full": ["x"]}}, r"data\.synth\.forced_full\[0\] has the wrong type"),
    ({"synth": {"capacity_range": [1.5, 3]}},
     r"data\.synth\.capacity_range\[0\] has the wrong type: expected int, got float"),
]


def test_type_errors_name_key(tmp_path, capsys):
    with pytest.raises(ConfigError, match="train.epochs"):
        resolve_config({"train": {"epochs": "ten"}})
    with pytest.raises(ConfigError, match="expected int or float, got bool"):
        resolve_config({"train": {"learning_rate": True}})
    for i, (data, message) in enumerate(MALFORMED_LISTS):
        with pytest.raises(ConfigError, match=message):
            resolve_config({"data": data})
        cfg = write_config(tmp_path / f"cfg{i}.json", data=data)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / f"out{i}")]) == 2
        assert re.search(message, capsys.readouterr().err)


def float_leaves(schema, path=""):
    """(key path, default, list index or None) of every float the schema takes:
    a float leaf, or the first item of a list of floats."""
    for key, node in schema.items():
        name = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            yield from float_leaves(node, name)
        elif len(node) > 2:
            if float in node[2]:
                yield name, node[0], 0
        elif isinstance(node[1], tuple) and float in node[1]:
            yield name, node[0], None


# JSON texts json.loads reads as a non-finite float, and what the error shows
NON_FINITE = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf", "1e999": "inf"}


def test_a_non_finite_config_number_exits_2_naming_its_key(tmp_path, capsys):
    leaves = list(float_leaves(config_module._SCHEMA))
    assert {"train.learning_rate", "train.grad_clip_norm", "train.rmsprop_smoothing",
            "data.synth.noise_level", "data.synth.base_range"} <= {n for n, _, _ in leaves}
    for i, (name, default, item) in enumerate(leaves):
        for text, shown in NON_FINITE.items():
            cfg = section = {}
            *parents, key = name.split(".")
            for parent in parents:
                section = section.setdefault(parent, {})
            section[key] = "VALUE" if item is None else ["VALUE", *default[1:]]
            path = tmp_path / f"cfg{i}-{shown}.json"
            path.write_text(json.dumps(cfg).replace('"VALUE"', text))
            key_shown = name if item is None else f"{name}[{item}]"
            assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == (f"config error: config key {key_shown} "
                                               f"must be a finite number, got {shown}\n")


def test_hidden_null_resolves_by_architecture():
    for architecture, hidden in (("TGCN", 512), ("RegTGCN", 256)):
        cfg = resolve_config({"model": {"architecture": architecture, "hidden": None}})
        assert model_spec_from(cfg).hidden == hidden


def test_load_config_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "train": {,}\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(bad)


# ------------------------------------------------------------------ synth

def test_synth_writes_dataset_and_echo(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("sites.csv", "records.csv", "synth_config.json",
                 "resolved_config.json", "meta.json"):
        assert (out / name).exists()
    echo = json.loads((out / "resolved_config.json").read_text())
    assert echo["config"]["data"]["synth"]["n_sites"] == 6
    assert echo["args"]["out"] == str(out)


def test_synth_same_seed_identical_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["synth", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ("sites.csv", "records.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"synth": {"n_sites": -3}}}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


def test_synth_region_count_stays_inside_the_latitude_layout(tmp_path, capsys):
    # region r sits at latitude 38 + 0.45 r (+-0.15): 116 regions reach 89.9
    fits = write_config(tmp_path / "fits.json",
                        data={"synth": {"n_sites": 116, "n_regions": 116, "days": 1}})
    assert main(["synth", "--config", str(fits), "--out", str(tmp_path / "fits")]) == 0
    sites = load_sites(tmp_path / "fits" / "sites.csv")
    assert len({s.region for s in sites}) == 116
    assert max(s.latitude for s in sites) <= 90.0
    over = write_config(tmp_path / "over.json",
                        data={"synth": {"n_sites": 117, "n_regions": 117, "days": 1}})
    assert main(["synth", "--config", str(over), "--out", str(tmp_path / "over")]) == 2
    assert "at most 116 regions" in capsys.readouterr().err
    assert not (tmp_path / "over" / "sites.csv").exists()


def test_synth_missing_config_exits_2(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "no.json"),
                 "--out", str(tmp_path / "x")]) == 2


# ------------------------------------------------------------- build-graph

def make_dataset(tmp_path, **synth_overrides):
    cfg = write_config(tmp_path / "synth_cfg.json",
                       data={"synth": synth_overrides} if synth_overrides else {})
    out = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_build_graph_strategies(tmp_path):
    data = make_dataset(tmp_path)
    sites = str(data / "sites.csv")

    conn = tmp_path / "conn.json"
    assert main(["build-graph", "--sites", sites, "--strategy", "connected",
                 "--out", str(conn)]) == 0
    doc = json.loads(conn.read_text())
    assert set(doc) == {"graph", "partition"}
    assert doc["partition"] is None
    assert len(doc["graph"]["sites"]) == 6

    reg = tmp_path / "reg.json"
    assert main(["build-graph", "--sites", sites, "--strategy", "regional",
                 "--out", str(reg)]) == 0
    doc = json.loads(reg.read_text())
    assert doc["partition"]["strategy"] == "regional"
    assert len(set(doc["partition"]["region_of"].values())) == 2

    ran = tmp_path / "ran.json"
    assert main(["build-graph", "--sites", sites, "--strategy", "random",
                 "--regions", "3", "--seed", "5", "--out", str(ran)]) == 0
    doc = json.loads(ran.read_text())
    assert len(set(doc["partition"]["region_of"].values())) == 3


def test_build_graph_random_needs_regions(tmp_path, capsys):
    data = make_dataset(tmp_path)
    code = main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", "random", "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert "--regions" in capsys.readouterr().err


def test_build_graph_missing_sites_exits_3(tmp_path):
    assert main(["build-graph", "--sites", str(tmp_path / "no.csv"),
                 "--strategy", "connected",
                 "--out", str(tmp_path / "g.json")]) == 3


SITES_CSV_HEADER = b"site_id,region,lat,lon,travel_time_min,owner,amenities,capacity\n"


@pytest.mark.parametrize("row", [
    b"s\xff1,WI,43.1,-89.4,12.5,1,4,80\n",
    b"s1,WI,43.1,-89.4,12.5,1,4,80,extra\n",
    b"s1,WI,43.1,-89.4,inf,1,4,80\n",
    b"s1,WI,43.1,-89.4,nan,1,4,80\n",
], ids=["not_utf8", "ninth_field", "inf_travel_time", "nan_travel_time"])
def test_build_graph_malformed_sites_exits_3(tmp_path, capsys, row):
    sites = tmp_path / "sites.csv"
    sites.write_bytes(SITES_CSV_HEADER + b"s0,WI,43.0,-89.0,10.0,0,1,40\n" + row)
    assert main(["build-graph", "--sites", str(sites), "--strategy", "connected",
                 "--out", str(tmp_path / "g.json")]) == 3
    assert "sites file" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("row", [b"s0,s1,far\n", b"s0,s1\n"],
                         ids=["non_numeric_miles", "missing_field"])
def test_build_graph_malformed_distance_cache_exits_3(tmp_path, capsys, monkeypatch, row):
    sites = tmp_path / "sites.csv"
    sites.write_bytes(SITES_CSV_HEADER + b"s0,WI,43.0,-89.0,10.0,0,1,40\n"
                      b"s1,WI,43.1,-89.4,12.5,1,4,80\n")
    cache = tmp_path / "miles.csv"
    cache.write_bytes(b"site_a,site_b,miles\n" + row)
    monkeypatch.setenv("REGRAPH_DISTANCE_CACHE", str(cache))
    assert main(["build-graph", "--sites", str(sites), "--strategy", "connected",
                 "--out", str(tmp_path / "g.json")]) == 3
    assert f"distance cache {cache} line 2" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_build_graph_zero_sigma_exits_2(tmp_path, capsys):
    data = make_dataset(tmp_path)
    assert main(["build-graph", "--sites", str(data / "sites.csv"), "--strategy",
                 "connected", "--sigma-miles", "0", "--out", str(tmp_path / "g.json")]) == 2
    assert "sigma_miles must be > 0" in capsys.readouterr().err


def test_build_graph_nan_threshold_exits_2(tmp_path, capsys):
    data = make_dataset(tmp_path)
    out = tmp_path / "g.json"
    argv = ["build-graph", "--sites", str(data / "sites.csv"), "--strategy", "connected",
            "--out", str(out), "--threshold-miles"]
    assert main(argv + ["nan"]) == 2
    assert "threshold_miles must be > 0, got nan" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["inf"]) == 0  # every pair is an edge
    assert len(json.loads(out.read_text())["graph"]["edges"]["i"]) == 6 * 5 // 2


def test_random_groups_use_the_configured_distance_provider(tmp_path, monkeypatch):
    # haversine puts the sites 22 miles apart; the cache, past the threshold
    sites = tmp_path / "sites.csv"
    sites.write_bytes(SITES_CSV_HEADER + b"site_000,WI,43.0,-89.0,10.0,0,1,40\n"
                      b"site_001,WI,43.1,-89.4,12.5,1,4,80\n")
    cache = tmp_path / "miles.csv"
    cache.write_text("site_a,site_b,miles\nsite_000,site_001,55.5\n")
    monkeypatch.setenv("REGRAPH_DISTANCE_CACHE", str(cache))
    out = tmp_path / "g.json"
    assert main(["build-graph", "--sites", str(sites), "--strategy", "random",
                 "--regions", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["graph"]["edges"] == {"i": [], "j": [], "miles": []}
    assert doc["partition"]["pairs"] == {"i": [0], "j": [1], "miles": [55.5]}


def test_build_graph_deterministic(tmp_path):
    data = make_dataset(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["build-graph", "--sites", str(data / "sites.csv"),
                     "--strategy", "regional", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------ analyze-graph

def test_analyze_graph_reports_overlap(tmp_path, capsys):
    data = make_dataset(tmp_path)
    graph_file = tmp_path / "reg.json"
    assert main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", "regional", "--out", str(graph_file)]) == 0
    capsys.readouterr()
    out_file = tmp_path / "new" / "dir" / "analysis.json"  # made as needed
    assert main(["analyze-graph", "--graph", str(graph_file),
                 "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed)
    assert doc["nodes"] == 6
    assert doc["partition"]["degree_monotone"] is True
    assert doc["overlap_cost"]["regional"] < doc["overlap_cost"]["connected"]
    assert out_file.read_text() == printed


@pytest.mark.parametrize("tamper", [
    lambda doc: doc["partition"]["region_of"].pop(doc["graph"]["sites"][0][0]),
    lambda doc: doc["partition"]["region_of"].update(ghost=doc["graph"]["sites"][0][1]),
    lambda doc: doc["graph"].pop("edges"),
    lambda doc: doc["partition"].update(strategy="bogus"),
    lambda doc: b'{"graph": "\xff"}',
    lambda doc: b"[" * 100_000 + b"]" * 100_000,
    lambda doc: doc.update(strategy="connected", partition=None,
                           graph={**doc["graph"], "sites": [],
                                  "edges": {"i": [], "j": [], "miles": []}}),
], ids=["unlabelled_site", "unknown_site_in_sub_edge", "no_edges", "bogus_strategy",
        "not_utf8", "nested_too_deep", "no_sites"])
def test_analyze_graph_malformed_file_exits_3(tmp_path, capsys, tamper):
    data = make_dataset(tmp_path)
    graph_file = tmp_path / "reg.json"
    assert main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", "regional", "--out", str(graph_file)]) == 0
    doc = json.loads(graph_file.read_text())
    raw = tamper(doc)  # the file's bytes, or None or a popped value after editing doc
    graph_file.write_bytes(raw if isinstance(raw, bytes) else json.dumps(doc).encode())
    capsys.readouterr()
    assert main(["analyze-graph", "--graph", str(graph_file)]) == 3
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["connected", "regional"])
def test_graph_file_without_a_partition_entry_exits_3(tmp_path, capsys, strategy):
    # build-graph always writes the entry, null for no partition
    data = make_dataset(tmp_path)
    graph_file = tmp_path / "g.json"
    assert main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", strategy, "--out", str(graph_file)]) == 0
    doc = json.loads(graph_file.read_text())
    del doc["partition"]
    graph_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze-graph", "--graph", str(graph_file)]) == 3
    assert f"graph file {graph_file} is missing the 'partition' entry" in capsys.readouterr().err


def test_analyze_graph_non_object_file_exits_3(tmp_path, capsys):
    graph_file = tmp_path / "null.json"
    graph_file.write_text("null\n")
    assert main(["analyze-graph", "--graph", str(graph_file)]) == 3
    assert "data error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """The bytes of a regional and a random graph file, and a directory to write in."""
    root = tmp_path_factory.mktemp("graphs")
    data = make_dataset(root)
    files = {}
    for strategy in ("regional", "random"):
        path = root / f"{strategy}.json"
        assert main(["build-graph", "--sites", str(data / "sites.csv"), "--strategy",
                     strategy, "--regions", "2", "--out", str(path)]) == 0
        files[strategy] = path.read_bytes()
    return root, files


# Bytes written over a span: arbitrary, or text that keeps the JSON parseable.
GRAPH_PATCHES = st.one_of(st.binary(min_size=1, max_size=24),
                          st.text('0123456789-+.eE[]{}",: tfnulrase', min_size=1,
                                  max_size=12).map(str.encode))
# Values put in place of one entry of the JSON document.
GRAPH_VALUES = st.sampled_from([None, False, True, 0, -1, 7, 10 ** 20, 0.0, -0.0, 0.5, 1e308,
                                float("nan"), float("inf"), "", "x", "WI", "random",
                                [], [0, 1, 2.5], {}])


def json_entries(doc, path=()):
    """Key paths of every entry of a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    return [p for key, value in items
            for p in [path + (key,)] + json_entries(value, path + (key,))]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_graph_file_loads_or_exits_2_or_3(graph_files, capsys, data):
    root, files = graph_files
    raw = files[data.draw(st.sampled_from(sorted(files)))]
    mode = data.draw(st.sampled_from(["truncate", "overwrite", "entry"]))
    if mode == "entry":
        doc = json.loads(raw)
        *keys, last = data.draw(st.sampled_from(json_entries(doc)))
        entry = doc
        for key in keys:
            entry = entry[key]
        entry[last] = data.draw(GRAPH_VALUES)
        raw = json.dumps(doc).encode()
    else:
        cut = data.draw(st.integers(0, len(raw) - 1))
        patch = data.draw(GRAPH_PATCHES) if mode == "overwrite" else b""
        raw = raw[:cut] + patch + raw[cut + len(patch):] if patch else raw[:cut]
    path = root / "corrupt.json"
    path.write_bytes(raw)
    capsys.readouterr()
    code = main(["analyze-graph", "--graph", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith(("config error:", "data error:"))


@pytest.mark.parametrize("strategy", ["connected", "random"])
def test_raw_kernel_sites_at_one_position_are_no_edge(tmp_path, capsys, strategy):
    sites = tmp_path / "sites.csv"
    sites.write_text("site_id,region,lat,lon,travel_time_min,owner,amenities,capacity\n"
                     "a,WI,43.0,-89.0,5,1,2,40\n"
                     "b,WI,43.0,-89.0,5,1,2,40\n"
                     "c,WI,43.1,-89.0,5,1,2,40\n")
    graph_file = tmp_path / "raw.json"
    assert main(["build-graph", "--sites", str(sites), "--strategy", strategy, "--regions", "1",
                 "--weights", "raw", "--out", str(graph_file)]) == 0
    capsys.readouterr()
    assert main(["analyze-graph", "--graph", str(graph_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # a and b are 0 miles apart, a zero raw weight: edges a-c and b-c only
    assert doc["edges"] == 2
    assert doc["degree"] == {"min": 1, "max": 2, "mean": 4 / 3}
    stored = json.loads(graph_file.read_text())
    edges = stored["graph"]["edges"]
    assert list(zip(edges["i"], edges["j"])) == [(0, 2), (1, 2)]


def test_random_partition_reloads_without_its_zero_weight_pairs(tmp_path, capsys):
    # c is 69 miles from a and b: a 0.5-mile gaussian weighs that pair 0.0
    sites = tmp_path / "sites.csv"
    sites.write_text("site_id,region,lat,lon,travel_time_min,owner,amenities,capacity\n"
                     "a,WI,43.0,-89.0,5,1,2,40\n"
                     "b,WI,43.0,-89.0,5,1,2,40\n"
                     "c,WI,44.0,-89.0,5,1,2,40\n")
    graph_file = tmp_path / "random.json"
    assert main(["build-graph", "--sites", str(sites), "--strategy", "random", "--regions", "1",
                 "--sigma-miles", "0.5", "--out", str(graph_file)]) == 0
    stored = json.loads(graph_file.read_text())
    assert stored["graph"]["edges"] == {"i": [0], "j": [1], "miles": [0.0]}
    # the pairs the graph leaves out are stored with their miles, and weigh 0
    pairs = stored["partition"]["pairs"]
    assert (pairs["i"], pairs["j"]) == ([0, 1], [2, 2]) and min(pairs["miles"]) > 69.0
    assert main(["analyze-graph", "--graph", str(graph_file)]) == 0
    graph, partition = cli._read_graph_file(graph_file)
    assert partition.subgraphs["group_0"].edges == graph.edges == ((0, 1, 0.0),)


# Sites 13.8 miles apart in a line: pairs 3 or more apart are not graph edges.
LINE_SITES = SITES_CSV_HEADER + b"".join(
    f"s{i},WI,{43.0 + 0.2 * i:.1f},-89.0,5,1,2,40\n".encode() for i in range(8))
COLUMN_DTYPES = {"i": "<i8", "j": "<i8", "miles": "<f8"}


def column_tables(doc):
    """The edge columns, and a random partition's pair columns, of a stored document."""
    tables = [doc["graph"]["edges"], (doc["partition"] or {}).get("pairs")]
    return [t for t in tables if t is not None]


def read_checkpoint_columns(path):
    """A checkpoint's header with its columns read in as lists, and its weight bytes."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header, offset = json.loads(raw[16:16 + length]), 16 + length
    for table in column_tables(header):
        for name, dtype in COLUMN_DTYPES.items():
            count = table[name]
            table[name] = np.frombuffer(raw, dtype, count, offset).tolist()
            offset += 8 * count
    return header, raw[offset:]


def write_checkpoint_columns(path, header, weights):
    columns = []
    for table in column_tables(header):
        for name, dtype in COLUMN_DTYPES.items():
            columns.append(np.asarray(table[name], dtype).tobytes())
            table[name] = len(table[name])
    blob = json.dumps(header).encode()
    path.write_bytes(b"RGCKPT01" + struct.pack("<Q", len(blob)) + blob + b"".join(columns)
                     + weights)


@pytest.fixture(scope="module")
def stored_random_graph(tmp_path_factory):
    """A random-strategy graph file with stored pairs, and a checkpoint on it."""
    root = tmp_path_factory.mktemp("stored")
    (root / "sites.csv").write_bytes(LINE_SITES)
    graph_file = root / "graph.json"
    assert main(["build-graph", "--sites", str(root / "sites.csv"), "--strategy", "random",
                 "--regions", "2", "--seed", "1", "--out", str(graph_file)]) == 0
    graph, partition = cli._read_graph_file(graph_file)
    assert len(partition.pairs[1]) >= 2 and len(graph.edges) == 13
    spec = ModelSpec("RanTGCN", 2, 2, (1,), "random")
    ckpt = root / "model.ckpt"
    save_checkpoint(ckpt, build_model(spec, graph, partition), np.zeros(8), np.ones(8), [1])
    return graph_file, ckpt


def _append_row(table, row):
    for name, value in zip(COLUMN_DTYPES, row):
        table[name].append(value)


def _swap_ends(table):
    table["i"][0], table["j"][0] = table["j"][0], table["i"][0]


STORED_TAMPERS = {
    "unequal_columns": (lambda d: d["graph"]["edges"]["miles"].pop(),
                        "columns i, j and miles of unequal lengths 13, 13 and 12"),
    "index_out_of_range": (lambda d: d["graph"]["edges"]["j"].__setitem__(-1, 8),
                           r"graph edge \(6, 8\) is not a node pair i < j < 8"),
    "i_not_below_j": (lambda d: _swap_ends(d["graph"]["edges"]),
                      r"graph edge \(1, 0\) is not a node pair i < j < 8"),
    "duplicate_pair": (lambda d: _append_row(d["graph"]["edges"], (0, 1, 13.8)),
                       "a node pair has more than one edge"),
    "nonfinite_miles": (lambda d: d["graph"]["edges"]["miles"].__setitem__(0, float("nan")),
                        r"graph edge \(0, 1\): miles nan is not finite"),
    "site_without_label": (lambda d: d["partition"]["region_of"].pop("s0"),
                           r"partition assignment missing sites \['s0'\]"),
    "unknown_site_label": (lambda d: d["partition"]["region_of"].update(ghost="group_0"),
                           r"names sites that are not in the graph: \['ghost'\]"),
    "pair_dropped": (lambda d: [column.pop(0) for column in d["partition"]["pairs"].values()],
                     r"stored pair 0 is \(s\d, s\d\), where the labels give \(s\d, s\d\)"),
    "pair_added": (lambda d: _append_row(d["partition"]["pairs"], (0, 1, 13.8)),
                   r"stored pair \d+ is \(s0, s1\), where the labels give none"),
    "pair_ends_altered": (lambda d: _swap_ends(d["partition"]["pairs"]),
                          "is not a node pair i < j < 8"),
    "pair_miles_altered": (lambda d: d["partition"]["pairs"]["miles"].__setitem__(0, math.inf),
                           "miles inf is not finite"),
}


@pytest.mark.parametrize("kind", ["graph_file", "checkpoint"])
@pytest.mark.parametrize("tamper", sorted(STORED_TAMPERS))
def test_tampered_columns_and_labels_exit_3_naming_the_cause(tmp_path, capsys,
                                                             stored_random_graph, kind, tamper):
    graph_file, ckpt = stored_random_graph
    edit, message = STORED_TAMPERS[tamper]
    if kind == "graph_file":
        doc = json.loads(graph_file.read_text())
        edit(doc)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        argv = ["analyze-graph", "--graph", str(path)]
    else:
        header, weights = read_checkpoint_columns(ckpt)
        edit(header)
        path = tmp_path / "model.ckpt"
        write_checkpoint_columns(path, header, weights)
        argv = ["predict", "--checkpoint", str(path), "--data", str(tmp_path / "none"),
                "--out", str(tmp_path / "p.csv")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and re.search(message, err), err


@pytest.mark.parametrize("edit,message", [
    (lambda h: h["scaling"].update(lo=h["scaling"]["lo"][:3]), "scaling lo holds 3 entries"),
    (lambda h: h["scaling"].update(hi=None), "scaling hi None is not list"),
    (lambda h: h["scaling"].update(lo=[[0.0]] * 8), r"scaling lo \[0\.0\] is not int or float"),
    (lambda h: h.update(train_weeks="2024-W01"), "train_weeks '2024-W01' is not list"),
    (lambda h: h.update(train_weeks=[[1]]), r"train week \[1\] is not str or int"),
    (lambda h: h.update(train_weeks=["2024-W54"]), "ConfigError: week number 54 outside 1..53"),
    (lambda h: h.update(train_weeks=["2024-01"]), "ConfigError: bad week spec '2024-01'"),
], ids=["short_lo", "null_hi", "nested_lo", "string_train_weeks", "nested_train_weeks",
        "train_week_54", "unlabelled_train_week"])
def test_a_checkpoint_with_malformed_scaling_or_weeks_exits_3(tmp_path, capsys,
                                                            stored_random_graph, edit, message):
    _, ckpt = stored_random_graph
    header, weights = read_checkpoint_columns(ckpt)
    edit(header)
    path = tmp_path / "model.ckpt"
    write_checkpoint_columns(path, header, weights)
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(path), "--data", str(tmp_path / "none"),
                 "--out", str(tmp_path / "p.csv")]) == 3
    err = capsys.readouterr().err
    assert "data error:" in err and re.search(message, err) and "Traceback" not in err, err


def test_the_tamper_helpers_alone_change_nothing_that_loads(tmp_path, stored_random_graph):
    _, ckpt = stored_random_graph
    header, weights = read_checkpoint_columns(ckpt)
    write_checkpoint_columns(tmp_path / "same.ckpt", header, weights)
    same, want = load_checkpoint(tmp_path / "same.ckpt"), load_checkpoint(ckpt)
    assert same.graph.edges == want.graph.edges
    assert [a.tolist() for a in same.partition.pairs] == [a.tolist() for a in want.partition.pairs]


def test_a_format_1_checkpoint_exits_2_naming_its_version(tmp_path, capsys, stored_random_graph):
    _, ckpt = stored_random_graph
    raw = ckpt.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + length])
    header["format_version"] = 1
    blob = json.dumps(header).encode()
    old = tmp_path / "old.ckpt"
    old.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length:])
    assert main(["predict", "--checkpoint", str(old), "--data", str(tmp_path),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert "unsupported checkpoint format 1; this version reads format 4" in \
        capsys.readouterr().err


@pytest.mark.parametrize("version", [2, 3])
def test_an_older_checkpoint_format_exits_2_naming_format_4(tmp_path, capsys,
                                                            stored_random_graph, version):
    # format 3 stored a random partition's group count beside the partition, and
    # format 2 stored that count but no grid
    _, ckpt = stored_random_graph
    header, weights = read_checkpoint_columns(ckpt)
    hyperparams = header["hyperparams"]
    assert "region_count" not in hyperparams
    header["format_version"], hyperparams["region_count"] = version, 2
    if version == 2:
        del hyperparams["grid_step_min"], hyperparams["max_gap_steps"]
    old = tmp_path / "old.ckpt"
    write_checkpoint_columns(old, header, weights)
    assert main(["predict", "--checkpoint", str(old), "--data", str(tmp_path),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert f"unsupported checkpoint format {version}; this version reads format 4" in \
        capsys.readouterr().err


def test_a_format_1_graph_file_exits_3_naming_its_layout(tmp_path, capsys, stored_random_graph):
    graph_file, _ = stored_random_graph
    doc = json.loads(graph_file.read_text())
    edges = doc["graph"]["edges"]
    doc["graph"]["edges"] = [list(e) for e in zip(edges["i"], edges["j"], edges["miles"])]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze-graph", "--graph", str(path)]) == 3
    assert "stored edges are a list, not the columns i, j and miles of format 2" in \
        capsys.readouterr().err


# ---------------------------------------------------------------- pipeline

PIPELINE_DATA = {
    "grid_step_min": 10, "max_gap_steps": 6, "k": 4, "horizons": [1, 3],
    "train_weeks": ["2024-W01"], "test_weeks": ["2024-W02"],
    "generality_weeks": ["2024-W03"],
}
# weight decay off: single-week training zeroes the week column after
# scaling, and decayed parameters with no gradient signal diverge
PIPELINE_TRAIN = {"epochs": 2, "seed": 3, "patience": 5, "weight_decay": 0.0}
PIPELINE_MODEL = {"architecture": "RegTGCN", "hidden": 8, "seed": 1}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> build-graph -> train once; several tests read the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root / "cfg.json",
                       data={**PIPELINE_DATA,
                             "synth": {**BASE_SYNTH, "days": 21}},
                       model=PIPELINE_MODEL, train=PIPELINE_TRAIN)
    data = root / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    graph_file = root / "graph.json"
    assert main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", "regional", "--out", str(graph_file)]) == 0
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--graph", str(graph_file), "--out", str(run)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "graph": graph_file,
            "run": run}


def test_train_writes_artifacts(pipeline):
    run = pipeline["run"]
    for name in ("checkpoint_best.ckpt", "train_report.json", "loss_trace.csv",
                 "resolved_config.json", "meta.json"):
        assert (run / name).exists()
    report = json.loads((run / "train_report.json").read_text())
    assert report["has_validation"] is True
    assert len(report["train_loss"]) <= 2
    meta = json.loads((run / "meta.json").read_text())
    assert "epoch_seconds" in meta and "started" in meta


def test_train_meta_counts_minor_faults_per_epoch(pipeline):
    run = pipeline["run"]
    meta = json.loads((run / "meta.json").read_text())
    faults = meta["epoch_minor_faults"]
    assert len(faults) == meta["epochs_run"] == len(meta["epoch_seconds"])
    assert all(type(f) is int and f >= 0 for f in faults)
    assert "epoch_minor_faults" not in (run / "train_report.json").read_text()


def test_predict_writes_rows_and_is_deterministic(pipeline):
    root, run, data = pipeline["root"], pipeline["run"], pipeline["data"]
    a, b = root / "preds_a.csv", root / "preds_b.csv"
    for out in (a, b):
        assert main(["predict", "--checkpoint", str(run / "checkpoint_best.ckpt"),
                     "--data", str(data), "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == "site_id,anchor_time,pred_h10,pred_h30"
    assert len(lines) > 6
    cells = lines[1].split(",")
    assert cells[0] == "site_000"
    float(cells[2]), float(cells[3])


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_inference_releases_the_checkpoint_weights_once_the_model_holds_them(
        pipeline, monkeypatch, tmp_path, command):
    loaded, seen = [], []
    original_restore, original_predict = cli.restore_model, reports.predict_samples

    def restore(bundle):
        loaded.extend(weakref.ref(array) for array in bundle.weights.values())
        return original_restore(bundle)

    def predict(model, samples, lo, hi):
        gc.collect()
        seen.append(sum(ref() is not None for ref in loaded))
        return original_predict(model, samples, lo, hi)

    monkeypatch.setattr(cli, "restore_model", restore)
    monkeypatch.setattr(cli, "predict_samples", predict)
    monkeypatch.setattr(reports, "predict_samples", predict)
    run, data = pipeline["run"], pipeline["data"]
    argv = (["predict", "--checkpoint", str(run / "checkpoint_best.ckpt"), "--data", str(data),
             "--out", str(tmp_path / "preds.csv")] if command == "predict" else
            ["evaluate", "--runs", str(run), "--out", str(tmp_path / "report")])
    assert main(argv) == 0
    assert len(loaded) > 0 and seen and seen == [0] * len(seen)


def test_predict_missing_checkpoint_exits_3(pipeline):
    root, data = pipeline["root"], pipeline["data"]
    assert main(["predict", "--checkpoint", str(root / "nope.ckpt"),
                 "--data", str(data), "--out", str(root / "p.csv")]) == 3


def test_predict_out_under_a_regular_file_exits_3(pipeline, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"x")
    target = blocker / "p.csv"
    assert main(["predict", "--checkpoint", str(pipeline["run"] / "checkpoint_best.ckpt"),
                 "--data", str(pipeline["data"]), "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {target}:")
    assert "Traceback" not in err


@pytest.fixture
def three_steps_of_data(pipeline, tmp_path):
    """The pipeline's data cut to three grid steps, fewer than k = 4 inputs and
    3 steps ahead."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    header, *rows = (data / "records.csv").read_text().splitlines(keepends=True)
    stamps = sorted({row.split(",")[1] for row in rows})[:3]
    (data / "records.csv").write_text(
        "".join([header] + [row for row in rows if row.split(",")[1] in stamps]))
    return data


NO_WINDOW = "data error: no usable windows: need at least 7 contiguous valid grid steps\n"


def main_showing_no_warning(argv):
    """``main``, failing the test if the command showed any warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


def test_predict_without_a_usable_window_exits_3(pipeline, three_steps_of_data, tmp_path,
                                                 capsys):
    code = main_showing_no_warning([
        "predict", "--checkpoint", str(pipeline["run"] / "checkpoint_best.ckpt"),
        "--data", str(three_steps_of_data), "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert capsys.readouterr().err == NO_WINDOW
    assert not (tmp_path / "p.csv").exists()


def test_train_without_a_usable_window_exits_3(pipeline, three_steps_of_data, tmp_path,
                                               capsys):
    code = main_showing_no_warning([
        "train", "--config", str(pipeline["cfg"]), "--data", str(three_steps_of_data),
        "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err == NO_WINDOW
    assert not (tmp_path / "run").exists()


def test_predict_on_records_with_a_stray_year_exits_3(tmp_path, capsys):
    # two sites with one day of records, plus one record ten years earlier
    data = make_dataset(tmp_path, n_sites=2, n_regions=1, days=1)
    with open(data / "records.csv", "a", encoding="utf-8") as fh:
        fh.write("site_000,2014-01-01T00:00:00,5\n")
    graph_file = tmp_path / "graph.json"
    assert main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", "connected", "--out", str(graph_file)]) == 0
    graph = graph_from_payload(json.loads(graph_file.read_text())["graph"])
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, build_model(ModelSpec("TGCN", 4, 3, (1,), "connected"), graph),
                    np.zeros(8), np.ones(8), [1])
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "p.csv")]) == 3
    assert "records span 2014-01-01" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def write_tampered_checkpoint(path, model, tamper):
    """Save ``model``, then rewrite its weight index (and bytes) with ``tamper``."""
    save_checkpoint(path, model, np.zeros(8), np.ones(8), [1])
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + length])
    weights = raw[16 + length:]
    last = header["weights"][-1]
    if tamper == "missing":
        header["weights"].pop()
        weights = weights[:len(weights) - 8 * int(np.prod(last["shape"]))]
    else:
        last["shape"] = last["shape"][::-1]
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + weights)
    return last["name"]


@pytest.mark.parametrize("tamper", ["missing", "transposed"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_predict_on_a_checkpoint_whose_weights_do_not_fit_exits_3(tmp_path, capsys,
                                                                  monkeypatch, arch, tamper):
    data = make_dataset(tmp_path, n_sites=4, n_regions=2, days=1)
    graph = build_connected(load_sites(data / "sites.csv"))
    conn = CONNECTIVITY_OF[arch]
    partition = {"connected": None, "regional": decompose_regional(graph),
                 "random": decompose_random(graph, r=2, seed=1)}[conn]
    spec = ModelSpec(arch, 3, 3, (1, 3), conn)
    ckpt = tmp_path / "model.ckpt"
    name = write_tampered_checkpoint(ckpt, build_model(spec, graph, partition), tamper)

    def no_generator(*args, **kwargs):
        raise AssertionError("restoring a model drew random weights")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "p.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: malformed checkpoint: ")
    assert (f"missing ['{name}']" if tamper == "missing" else f"weight {name}:") in err
    assert not (tmp_path / "p.csv").exists()


def test_evaluate_reports_and_self_consistency(pipeline):
    root, run = pipeline["root"], pipeline["run"]
    report_dir = root / "report"
    assert main(["evaluate", "--runs", str(run), "--out", str(report_dir)]) == 0

    lines = (report_dir / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == ("model,connectivity,horizon_min,seed,"
                       "rmse,mae,mape,mae_literal,mape_literal")
    assert len(lines) == 3  # two horizons

    comparison = json.loads((report_dir / "comparison.json").read_text())
    assert "RegTGCN" in comparison["models"]
    assert comparison["overlap_cost"]["regional"] < \
        comparison["overlap_cost"]["connected"]

    summary = json.loads((report_dir / "evaluation.json").read_text())["run"]
    assert summary["status"] == "ok"
    # recomputed validation RMSE must match the one stored at train time
    assert summary["val_rmse_check"] == pytest.approx(
        summary["val_rmse_reported"], abs=1e-12)
    assert "generality" in summary
    assert set(summary["generality"].keys()) == {"10", "30"}
    assert (report_dir / "timeseries_run.csv").exists()


def test_evaluate_headline_comes_from_the_flag_alone(pipeline, tmp_path):
    # a run written when the config had graph and eval sections still evaluates,
    # and its stored eval.literal_eq14 no longer picks the headline
    run = tmp_path / "old_run"
    shutil.copytree(pipeline["run"], run)
    echo = json.loads((run / "resolved_config.json").read_text())
    echo["config"]["graph"] = {"strategy": "connected", "threshold_miles": 40.0}
    echo["config"]["eval"] = {"literal_eq14": True}
    (run / "resolved_config.json").write_text(json.dumps(echo))
    for flags, headline in (([], "standard"), (["--literal-eq14"], "literal_eq14")):
        out = tmp_path / headline
        assert main(["evaluate", "--runs", str(run), "--out", str(out)] + flags) == 0
        assert json.loads((out / "comparison.json").read_text())["headline"] == headline


def test_evaluate_predicts_each_split_once(pipeline, monkeypatch):
    # the test split's predictions feed both the metrics and timeseries_run.csv
    original = reports.predict_samples
    calls = []

    def counting(model, samples, lo, hi):
        calls.append(len(samples))
        return original(model, samples, lo, hi)

    monkeypatch.setattr(reports, "predict_samples", counting)
    monkeypatch.setattr(cli, "predict_samples", counting)
    report_dir = pipeline["root"] / "report_once"
    assert main(["evaluate", "--runs", str(pipeline["run"]), "--out", str(report_dir)]) == 0
    summary = json.loads((report_dir / "evaluation.json").read_text())["run"]
    assert sorted(calls) == sorted([summary["test_samples"], summary["generality_samples"]])


def test_evaluate_builds_one_model_per_run(pipeline, monkeypatch, tmp_path):
    # the generality split reuses the model restored for the test split
    from regraph.models import checkpoint
    original = checkpoint.build_model
    calls = []

    def counting(spec, *args, **kwargs):
        calls.append(spec.architecture)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "build_model", counting)
    copy = tmp_path / "copy"
    shutil.copytree(pipeline["run"], copy)
    out = tmp_path / "out"
    assert main(["evaluate", "--runs", str(pipeline["run"]), str(copy), "--out", str(out)]) == 0
    summaries = json.loads((out / "evaluation.json").read_text())
    assert all("generality" in summaries[name] for name in ("run", "copy"))
    assert calls == ["RegTGCN", "RegTGCN"]


def test_evaluate_reads_a_data_directory_once(pipeline, monkeypatch, tmp_path):
    # runs over one data directory share its grid; each run still checks its sites
    copy = tmp_path / "copy"
    shutil.copytree(pipeline["run"], copy)
    alone = []
    for run in (pipeline["run"], copy):
        out = tmp_path / f"alone_{run.name}"
        assert main(["evaluate", "--runs", str(run), "--out", str(out)]) == 0
        alone.append(out)
    calls = {"load_records": 0, "load_sites": 0}
    for name in calls:
        def counting(path, _original=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _original(path)
        monkeypatch.setattr(cli, name, counting)
    both = tmp_path / "both"
    assert main(["evaluate", "--runs", str(pipeline["run"]), str(copy), "--out", str(both)]) == 0
    assert calls == {"load_records": 1, "load_sites": 2}
    summaries = json.loads((both / "evaluation.json").read_text())
    for run, out in zip((pipeline["run"], copy), alone):
        name = run.name
        assert (both / f"timeseries_{name}.csv").read_bytes() == \
            (out / f"timeseries_{name}.csv").read_bytes()
        assert summaries[name] == json.loads((out / "evaluation.json").read_text())[name]


def test_evaluate_takes_window_length_and_horizons_from_the_checkpoint(pipeline, tmp_path):
    # the checkpoint's model fixes k and horizons; the config echo's copies
    # of them are not read
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    echo = json.loads((run / "resolved_config.json").read_text())
    echo["config"]["data"].update(k=5, horizons=[1, 2])
    (run / "resolved_config.json").write_text(json.dumps(echo))
    outputs = []
    for source in (pipeline["run"], run):
        out = tmp_path / f"out_{len(outputs)}"
        assert main(["evaluate", "--runs", str(source), "--out", str(out)]) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def five_minute_run(pipeline, tmp_path_factory):
    """A run trained on a 5-minute grid that fills gaps of up to 2 steps, over
    the pipeline's 10-minute records less one test-week time, which leaves a
    3-step gap."""
    root = tmp_path_factory.mktemp("five_minute")
    data = root / "data"
    shutil.copytree(pipeline["data"], data)
    lines = (data / "records.csv").read_text().splitlines(keepends=True)
    (data / "records.csv").write_text(
        "".join(line for line in lines if ",2024-01-10T12:10:00," not in line))
    cfg = write_config(root / "cfg.json",
                       data={**PIPELINE_DATA, "grid_step_min": 5, "max_gap_steps": 2,
                             "synth": {**BASE_SYNTH, "days": 21}},
                       model=PIPELINE_MODEL, train={**PIPELINE_TRAIN, "epochs": 1})
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--graph", str(pipeline["graph"]), "--out", str(run)]) == 0
    return {"data": data, "run": run}


def test_predict_grids_as_the_checkpoint_was_trained(five_minute_run, tmp_path):
    data, ckpt = five_minute_run["data"], five_minute_run["run"] / "checkpoint_best.ckpt"
    out = tmp_path / "preds.csv"
    assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(out)]) == 0
    bundle = load_checkpoint(ckpt)
    records = load_records(data / "records.csv")
    grid = interpolate_to_grid(records, list(bundle.graph.nodes), 5, 2)
    samples = make_windows(grid, 4, (1, 3), 5)
    # the 3-step gap drops windows that the default gap policy would fill
    assert len(samples) < len(make_windows(
        interpolate_to_grid(records, list(bundle.graph.nodes), 5, 6), 4, (1, 3), 5))
    preds, _ = predict_samples(restore_model(bundle), samples, bundle.scaling_lo,
                               bundle.scaling_hi)
    header, *rows = out.read_text().splitlines()
    assert header == "site_id,anchor_time,pred_h5,pred_h15"
    assert len(rows) == preds.shape[0] * preds.shape[1]
    for row, (s_idx, i) in zip(rows, np.ndindex(preds.shape[:2])):
        site_id, anchor, *values = row.split(",")
        assert (site_id, anchor) == (bundle.graph.nodes[i].site_id,
                                     samples[s_idx].anchor_time.isoformat())
        assert [float(v) for v in values] == preds[s_idx, i].tolist()


def test_evaluate_takes_the_grid_from_the_checkpoint(five_minute_run, tmp_path):
    # the config echo's grid keys are not read
    run = tmp_path / "run"
    shutil.copytree(five_minute_run["run"], run)
    echo = json.loads((run / "resolved_config.json").read_text())
    echo["config"]["data"].update(grid_step_min=10, max_gap_steps=6)
    (run / "resolved_config.json").write_text(json.dumps(echo))
    outputs = []
    for source in (five_minute_run["run"], run):
        out = tmp_path / f"out_{len(outputs)}"
        assert main(["evaluate", "--runs", str(source), "--out", str(out)]) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert [line.split(",")[2] for line in outputs[0].decode().splitlines()[1:]] == ["5", "15"]


def test_predict_has_no_grid_flags(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--checkpoint", str(pipeline["run"] / "checkpoint_best.ckpt"),
              "--data", str(pipeline["data"]), "--out", str(tmp_path / "p.csv"),
              "--grid-step-min", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-step-min 10" in capsys.readouterr().err


def test_evaluate_skips_missing_run(pipeline, capsys):
    root, run = pipeline["root"], pipeline["run"]
    report_dir = root / "report_skip"
    empty = root / "not_a_run"
    empty.mkdir(exist_ok=True)
    assert main(["evaluate", "--runs", str(empty), str(run),
                 "--out", str(report_dir)]) == 0
    assert "skipping" in capsys.readouterr().err
    summary = json.loads((report_dir / "evaluation.json").read_text())
    assert summary["not_a_run"]["status"] == "absent"
    assert summary["run"]["status"] == "ok"


def test_evaluate_with_no_run_scored_exits_3_and_writes_nothing(tmp_path, capsys):
    empty = tmp_path / "not_a_run"
    empty.mkdir()
    out = tmp_path / "out"
    assert main(["evaluate", "--runs", str(empty), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"warning: skipping {empty}: no checkpoint_best.ckpt" in err
    assert f"data error: no run was scored: none of {empty} holds a checkpoint_best.ckpt" in err
    assert not out.exists()


def test_evaluate_a_checkpoint_without_its_config_echo_exits_3(pipeline, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    (run / "resolved_config.json").unlink()
    capsys.readouterr()
    assert main(["evaluate", "--runs", str(run), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read run config {run / 'resolved_config.json'}")
    assert "skipping" not in err


def test_evaluate_refuses_two_runs_of_one_name_before_reading_either(pipeline, tmp_path,
                                                                    capsys, monkeypatch):
    first, second = pipeline["run"], tmp_path / "b" / "run"
    shutil.copytree(first, second)
    monkeypatch.setattr(cli, "_read_run", lambda run: pytest.fail(f"{run} was read"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["evaluate", "--runs", str(first), str(second), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: runs {first} and {second} share the name 'run'" in err
    assert not out.exists()


def test_evaluate_with_no_samples_in_test_weeks_exits_3(pipeline, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    echo = json.loads((run / "resolved_config.json").read_text())
    echo["config"]["data"]["test_weeks"] = ["2024-W40"]
    (run / "resolved_config.json").write_text(json.dumps(echo))
    assert main(["evaluate", "--runs", str(run), "--out", str(tmp_path / "out")]) == 3
    assert f"run {run}: no samples fall inside test_weeks" in capsys.readouterr().err


def drop_test_weeks(run):
    echo = json.loads((run / "resolved_config.json").read_text())
    del echo["config"]["data"]["test_weeks"]
    return json.dumps(echo).encode()


@pytest.mark.parametrize("name, contents", [
    ("resolved_config.json", lambda run: b'{"config": {'),
    ("resolved_config.json", lambda run: b'{"config": "\xff"}'),
    ("resolved_config.json", drop_test_weeks),
    ("train_report.json", lambda run: (run / "train_report.json").read_bytes()[:40]),
], ids=["truncated_json", "not_utf8", "missing_key", "truncated_train_report"])
def test_evaluate_malformed_run_file_exits_3(pipeline, tmp_path, capsys, name, contents):
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    (run / name).write_bytes(contents(run))
    capsys.readouterr()
    assert main(["evaluate", "--runs", str(run), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(run / name) in err
    assert "Traceback" not in err


def test_train_week_overlap_exits_2(pipeline, capsys):
    root, data, graph_file = pipeline["root"], pipeline["data"], pipeline["graph"]
    cfg = write_config(root / "overlap.json",
                       data={**PIPELINE_DATA,
                             "train_weeks": ["2024-W01", "2024-W02"],
                             "synth": {**BASE_SYNTH, "days": 21}},
                       model=PIPELINE_MODEL, train=PIPELINE_TRAIN)
    code = main(["train", "--config", str(cfg), "--data", str(data),
                 "--graph", str(graph_file), "--out", str(root / "run2")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_train_week_label_outside_1_to_53_exits_2(pipeline, capsys, tmp_path):
    cfg = write_config(tmp_path / "w99.json",
                       data={**PIPELINE_DATA, "train_weeks": ["2024-W99"],
                             "synth": {**BASE_SYNTH, "days": 21}},
                       model=PIPELINE_MODEL, train=PIPELINE_TRAIN)
    code = main(["train", "--config", str(cfg), "--data", str(pipeline["data"]),
                 "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "week number 99 outside 1..53" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("model", "model seed must be >= 0, got -1"),
    ("train", "train seed must be non-negative, got -1"),
    ("synth", "synth seed must be >= 0, got -1"),
    ("build-graph", "decompose_random: seed must be >= 0, got -1"),
], ids=["model", "train", "synth", "build-graph"])
def test_negative_seed_exits_2(pipeline, capsys, tmp_path, case, message):
    run = ["--data", str(pipeline["data"]), "--graph", str(pipeline["graph"]),
           "--out", str(tmp_path / "run")]
    if case == "build-graph":
        argv = ["build-graph", "--sites", str(pipeline["data"] / "sites.csv"),
                "--strategy", "random", "--regions", "2", "--seed", "-1",
                "--out", str(tmp_path / "g.json")]
    elif case == "synth":
        cfg = write_config(tmp_path / "cfg.json", data={"synth": {"seed": -1}})
        argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]
    else:
        sections = {"model": PIPELINE_MODEL, "train": PIPELINE_TRAIN}
        sections[case] = {**sections[case], "seed": -1}
        cfg = write_config(tmp_path / "cfg.json",
                           data={**PIPELINE_DATA, "synth": {**BASE_SYNTH, "days": 21}},
                           **sections)
        argv = ["train", "--config", str(cfg)] + run
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_train_with_a_graph_section_exits_2(pipeline, capsys):
    root, data, graph_file = pipeline["root"], pipeline["data"], pipeline["graph"]
    cfg = write_config(root / "graph_section.json",
                       data={**PIPELINE_DATA, "synth": {**BASE_SYNTH, "days": 21}},
                       model=PIPELINE_MODEL, train=PIPELINE_TRAIN,
                       graph={"strategy": "random", "regions": 3})
    code = main(["train", "--config", str(cfg), "--data", str(data),
                 "--graph", str(graph_file), "--out", str(root / "run_graph")])
    assert code == 2
    assert "unknown config key: graph" in capsys.readouterr().err
    assert not (root / "run_graph").exists()


def test_train_with_no_samples_in_train_weeks_exits_3(pipeline, capsys, tmp_path):
    cfg = write_config(tmp_path / "w40.json",
                       data={**PIPELINE_DATA, "train_weeks": ["2024-W40"],
                             "synth": {**BASE_SYNTH, "days": 21}},
                       model=PIPELINE_MODEL, train=PIPELINE_TRAIN)
    code = main(["train", "--config", str(cfg), "--data", str(pipeline["data"]),
                 "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "run")])
    assert code == 3
    assert "no training samples fall inside train_weeks" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_out_a_regular_file_exits_3_before_training(pipeline, capsys, tmp_path,
                                                          monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train ran")
    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "run"
    out.write_bytes(b"x")
    code = main(["train", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--graph", str(pipeline["graph"]), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {out / 'resolved_config.json'}:")
    assert out.read_bytes() == b"x"
    assert not list(tmp_path.rglob("*.ckpt"))


def test_a_diverging_learning_rate_exits_1(tmp_path, capsys):
    data = make_dataset(tmp_path, days=8)
    graph_file = tmp_path / "graph.json"
    assert main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", "connected", "--out", str(graph_file)]) == 0
    cfg = write_config(tmp_path / "lr.json",
                       data={**PIPELINE_DATA, "synth": {**BASE_SYNTH, "days": 8}},
                       model={"architecture": "TGCN", "hidden": 8, "seed": 1},
                       train={"epochs": 1, "seed": 3, "learning_rate": 1e300})
    capsys.readouterr()
    # the numeric error alone: no NumPy overflow warning before it
    code = main_showing_no_warning(["train", "--config", str(cfg), "--data", str(data),
                                    "--graph", str(graph_file), "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == "numeric error: non-finite training loss at epoch 1, step 2\n"


def test_a_weight_decay_above_1_exits_2(tmp_path, capsys):
    # 1e300 overflowed RMSProp's decay term: every update was 0 and train exited 0
    data = make_dataset(tmp_path, days=8)
    graph_file = tmp_path / "graph.json"
    assert main(["build-graph", "--sites", str(data / "sites.csv"),
                 "--strategy", "connected", "--out", str(graph_file)]) == 0
    cfg = write_config(tmp_path / "decay.json",
                       data={**PIPELINE_DATA, "synth": {**BASE_SYNTH, "days": 8}},
                       model={"architecture": "TGCN", "hidden": 8, "seed": 1},
                       train={"epochs": 2, "seed": 3, "weight_decay": 1e300})
    capsys.readouterr()
    code = main_showing_no_warning(["train", "--config", str(cfg), "--data", str(data),
                                    "--graph", str(graph_file), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: weight_decay must lie in [0, 1], got 1e+300\n"
    assert not (tmp_path / "run").exists()


def test_train_mismatched_sites_exits_3(pipeline, tmp_path):
    other = make_dataset(tmp_path, seed=99, n_sites=5, n_regions=1)
    code = main(["train", "--config", str(pipeline["cfg"]),
                 "--data", str(other), "--graph", str(pipeline["graph"]),
                 "--out", str(tmp_path / "bad_run")])
    assert code == 3


@pytest.mark.parametrize("strategy", [None, "regional"], ids=["no_strategy", "old_strategy"])
def test_a_graph_file_trains_and_analyzes_with_or_without_a_strategy_entry(
        pipeline, tmp_path, capsys, strategy):
    # build-graph writes no top-level strategy; files that still hold one load too
    doc = json.loads(pipeline["graph"].read_text())
    assert set(doc) == {"graph", "partition"}
    if strategy is not None:
        doc["strategy"] = strategy
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze-graph", "--graph", str(graph_file)]) == 0
    assert json.loads(capsys.readouterr().out)["partition"]["strategy"] == "regional"
    run = tmp_path / "run"
    assert main(["train", "--config", str(pipeline["cfg"]), "--data", str(pipeline["data"]),
                 "--graph", str(graph_file), "--out", str(run)]) == 0
    assert (run / "checkpoint_best.ckpt").read_bytes() == \
        (pipeline["run"] / "checkpoint_best.ckpt").read_bytes()


def test_connected_model_ignores_partition_in_graph_file(pipeline, tmp_path):
    root, data = pipeline["root"], pipeline["data"]
    cfg = write_config(tmp_path / "tgcn.json",
                       data={**PIPELINE_DATA,
                             "synth": {**BASE_SYNTH, "days": 21}},
                       model={"architecture": "TGCN", "hidden": 8, "seed": 1},
                       train={"epochs": 1, "seed": 3, "weight_decay": 0.0})
    run = tmp_path / "tgcn_run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--graph", str(pipeline["graph"]), "--out", str(run)]) == 0
    assert (run / "checkpoint_best.ckpt").exists()
