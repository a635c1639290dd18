"""The package needs nothing at run time beyond the standard library and NumPy."""

import ast
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


# Ops with no caller in the package, each kept for a job outside it.
UNCALLED_OPS = {
    "tanh": "the reference op the gru_update bit-identity test builds the update from",
    "clear_tape": "tape control for perfbench and the tests",
    "tape_length": "tape control for perfbench and the tests",
}


def test_every_numerics_export_has_a_caller_in_the_package():
    # A name counts as used where the code loads it; its def, its __all__
    # string and its import lines do not.
    from regraph import numerics
    loaded = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
    uncalled = sorted(set(numerics.__all__) - loaded - set(UNCALLED_OPS))
    assert uncalled == []
