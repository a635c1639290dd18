"""The package needs nothing at run time beyond the standard library and NumPy."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import regraph
from regraph import cli
from regraph.graph import (HaversineProvider, SiteMeta, build_connected, decompose_random,
                           decompose_regional, load_sites)
from regraph.models import ARCHITECTURES, ModelSpec, build_model, save_checkpoint
from regraph.models.architectures import CONNECTIVITY_OF
from regraph.numerics import clear_tape, constant
from regraph.numerics import tensor as tensor_core
from regraph.training import mse_loss

ALLOWED = ("numpy", "regraph")
PACKAGE = Path(regraph.__file__).resolve().parent

# Lists the top-level modules that importing the CLI and the distance
# providers loads, leaving out whatever the interpreter loaded at start-up.
PROBE = """
import json, sys
before = set(sys.modules)
import regraph.cli, regraph.graph.distance
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def undeclared(names):
    return sorted(name for name in set(names)
                  if name not in sys.stdlib_module_names and name not in ALLOWED)


def run_probe(probe: str, *args: str) -> object:
    """What a fresh interpreter running ``probe`` with ``args`` prints, read as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_cli_imports_only_stdlib_numpy_and_regraph():
    loaded = run_probe(PROBE)
    assert set(ALLOWED) <= set(loaded)
    assert undeclared(loaded) == []


# Modules inference has no use for: hashing with OpenSSL behind it, and the
# random generators, whose draws a restored model would overwrite.
UNUSED_BY_INFERENCE = ("secrets", "hashlib", "numpy.random")

# Which of the modules named in argv[1] importing the CLI loads, and which
# are loaded once ``main`` has run on the rest of argv, with its exit code.
INFER_PROBE = """
import json, sys
import regraph.cli
unused = sys.argv[1].split(",")
imported = [name for name in unused if name in sys.modules]
code = regraph.cli.main(sys.argv[2:])
print(json.dumps([imported, code, [name for name in unused if name in sys.modules]]))
"""


def test_inference_loads_neither_hashing_nor_random_generators(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"synth": {"n_sites": 6, "n_regions": 2, "days": 2}}}))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    graph = build_connected(load_sites(data / "sites.csv"), HaversineProvider())
    model = build_model(ModelSpec("RegTGCN", 4, 3, (1, 3), "regional"), graph,
                        decompose_regional(graph))
    save_checkpoint(tmp_path / "model.ckpt", model, np.zeros(8), np.ones(8), [])
    out = tmp_path / "preds.csv"
    imported, code, predicted = run_probe(
        INFER_PROBE, ",".join(UNUSED_BY_INFERENCE), "predict",
        "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(data), "--out", str(out))
    assert code == 0 and len(out.read_text().splitlines()) > 1
    assert imported == []
    assert predicted == []


def test_no_import_statement_names_another_package():
    # Also covers imports inside functions, which the probe above does not run.
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names += [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.append(node.module.partition(".")[0])
    assert "urllib" in names
    assert undeclared(names) == []


# Exports with no caller in the package, each kept for a job outside it.
UNCALLED_EXPORTS = {
    "tanh": "the reference op the gru_update bit-identity test builds the update from",
    "clear_tape": "tape control for perfbench and the tests",
    "tape_length": "tape control for perfbench and the tests",
    "degree": "perfbench's mean degree and acceptance criterion 3's monotonicity check",
    "gru_step": "a name perfbench's tracer wraps; acceptance criteria 1 and 2 run it",
    "attention_aggregate": "a name perfbench's tracer wraps; acceptance criteria 1 and 2 run it",
    "haversine_miles": "the reference formula HaversineProvider.miles inlines, bit for bit",
}


def package_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        yield importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))


def test_every_package_export_has_a_caller_in_the_package():
    # A name counts as used where the code loads it; its def, its __all__
    # string and its import lines do not.
    loaded = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
    exported = {(module.__name__, name) for module in package_modules()
                for name in getattr(module, "__all__", ())}
    assert len(exported) > 100
    uncalled = sorted((module, name) for module, name in exported
                      if name not in loaded and name not in UNCALLED_EXPORTS)
    assert uncalled == []


def test_only_the_tape_switch_reads_the_recording_flag():
    # An op runs the same arithmetic taped or frozen; only _record decides
    # whether the result is recorded.
    tree = ast.parse((PACKAGE / "numerics" / "tensor.py").read_text(encoding="utf-8"))
    readers = sorted(
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == "_RECORDING"
                and isinstance(node.ctx, ast.Load) for node in ast.walk(fn)))
    assert readers == ["_record", "no_grad"]


def _opens_for_writing(call: ast.Call) -> bool:
    """An ``open`` whose mode is not a constant holding only read letters."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and set(mode.value) <= set("rbt"))


def test_only_files_makes_directories_and_writes_files():
    # An artifact reaches disk one way: files.atomic_open makes its directory
    # and replaces it whole. The distance cache alone appends, in place.
    makers, writers = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in ("mkdir", "makedirs"):
                makers.add(module)
            elif called in ("write_text", "write_bytes") or \
                    called == "open" and _opens_for_writing(node):
                writers.add(module)
    assert makers == {"files.py"}
    assert writers == {"files.py", "graph/distance.py"}


def test_package_all_is_its_modules_all_concatenated():
    # A name is declared once, in its module's __all__; the subpackage's
    # __init__ star-imports the modules and holds no name list of its own.
    inits = sorted(PACKAGE.glob("*/__init__.py"))
    assert len(inits) == 6
    for path in inits:
        package = importlib.import_module(f"regraph.{path.parent.name}")
        modules = [importlib.import_module(f"{package.__name__}.{p.stem}")
                   for p in sorted(path.parent.glob("*.py")) if p.stem != "__init__"]
        declared = [name for module in modules for name in module.__all__]
        assert package.__all__ == declared, package.__name__
        assert len(set(declared)) == len(declared), package.__name__
        assert all(getattr(package, name) is getattr(module, name)
                   for module in modules for name in module.__all__)
        # it imports only its modules and their stars, and spells out no names
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert imported == {"*"} | {p.stem for p in path.parent.glob("*.py")} - {"__init__"}
        assert not any(isinstance(node, (ast.List, ast.Tuple, ast.Set)) for node in ast.walk(tree))


# Ops of the tensor core that record a gradient rule no architecture's train
# step runs, each kept for a job outside the models.
UNTRAINED_RULES = {
    "tanh": "the reference op the gru_update bit-identity test builds the update from",
}


def train_step_ops(arch):
    """The ops on the tape of one train step of ``arch``: forward and mse_loss."""
    sites = [SiteMeta(f"s{i}", "AB"[i % 2], 43.0 + 0.1 * i, -89.0, 10.0, 1, 3, 50)
             for i in range(4)]
    graph = build_connected(sites, HaversineProvider())
    connectivity = CONNECTIVITY_OF[arch]
    partition = {"connected": None, "regional": decompose_regional(graph),
                 "random": decompose_random(graph, r=2, seed=0)}[connectivity]
    spec = ModelSpec(arch, 4, 2, (1, 2), connectivity)
    model = build_model(spec, graph, partition)
    window = np.random.default_rng(0).uniform(size=(2, 4, 8))
    clear_tape()
    mse_loss(model.forward(window), constant(np.zeros((4, 2))))
    ops = {entry.grad_fn.__qualname__.split(".")[0] for entry in tensor_core._TAPE}
    clear_tape()
    return ops


def test_every_gradient_rule_runs_in_some_train_step():
    # An exported op that defines a gradient rule (a grad_fn) must be on the
    # tape of some architecture's train step, or be named above with a reason.
    tree = ast.parse((PACKAGE / "numerics" / "tensor.py").read_text(encoding="utf-8"))
    with_rules = {fn.name for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name in tensor_core.__all__
                  and any(isinstance(node, ast.FunctionDef) and node.name == "grad_fn"
                          for node in ast.walk(fn))}
    assert {"matmul", "propagate", "segment_gcn", "gru_update", "tanh"} <= with_rules
    taped = set().union(*(train_step_ops(arch) for arch in ARCHITECTURES))
    assert sorted(with_rules - taped - set(UNTRAINED_RULES)) == []
    assert sorted(set(UNTRAINED_RULES) - (with_rules - taped)) == []
