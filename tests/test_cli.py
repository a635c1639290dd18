"""End-to-end tests for the command-line pipeline."""

import dataclasses
import gc
import json
import re
import shutil
import struct
import warnings
import weakref

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
from regraph.data import SyntheticConfig
from regraph.errors import ConfigError
from regraph.graph import build_connected, decompose_random, decompose_regional, load_sites
from regraph.evaluation import reports
from regraph.models import ARCHITECTURES, ModelSpec, build_model, save_checkpoint
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
    assert doc["strategy"] == "connected"
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
    assert len(json.loads(out.read_text())["graph"]["edges"]) == 6 * 5 // 2


def test_random_groups_use_the_configured_distance_provider(tmp_path, monkeypatch):
    sites = tmp_path / "sites.csv"
    sites.write_bytes(SITES_CSV_HEADER + b"site_000,WI,43.0,-89.0,10.0,0,1,40\n"
                      b"site_001,WI,43.1,-89.4,12.5,1,4,80\n")
    cache = tmp_path / "miles.csv"
    cache.write_text("site_a,site_b,miles\nsite_000,site_001,1.5\n")
    monkeypatch.setenv("REGRAPH_DISTANCE_CACHE", str(cache))
    out = tmp_path / "g.json"
    assert main(["build-graph", "--sites", str(sites), "--strategy", "random",
                 "--regions", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["graph"]["edges"] == [[0, 1, 1.5]]
    assert doc["partition"]["subgraph_edges"] == {"group_0": [["site_000", "site_001", 1.5]]}


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
    lambda doc: next(iter(doc["partition"]["subgraph_edges"].values())).append(
        ["ghost", doc["graph"]["sites"][0][0], 1.0]),
    lambda doc: doc["graph"].pop("edges"),
    lambda doc: doc["partition"].update(strategy="bogus"),
    lambda doc: doc.update(strategy="random"),
    lambda doc: b'{"graph": "\xff"}',
    lambda doc: b"[" * 100_000 + b"]" * 100_000,
    lambda doc: doc.update(strategy="connected", partition=None,
                           graph={**doc["graph"], "sites": [], "edges": []}),
], ids=["unlabelled_site", "unknown_site_in_sub_edge", "no_edges", "bogus_strategy",
        "strategy_differs_from_partition", "not_utf8", "nested_too_deep", "no_sites"])
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
    assert [e[:2] for e in stored["graph"]["edges"]] == [[0, 2], [1, 2]]


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
    assert stored["partition"]["subgraph_edges"] == {"group_0": [["a", "b", 0.0]]}
    assert main(["analyze-graph", "--graph", str(graph_file)]) == 0


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
    spec = ModelSpec(arch, 3, 3, (1, 3), conn, region_count=2 if conn == "random" else None)
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
