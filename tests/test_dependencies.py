"""The package needs nothing at run time beyond the standard library and NumPy."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import regraph

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


def test_cli_imports_only_stdlib_numpy_and_regraph():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert set(ALLOWED) <= set(loaded)
    assert undeclared(loaded) == []


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
