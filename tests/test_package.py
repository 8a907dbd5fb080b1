"""The public names and the bindings that perfbench/spans.py wraps resolve,
the package defines no public function that only tests call, and the CLI
runs without the tests' reference module."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import aoi_isac

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def test_every_wrapped_binding_exists():
    assert [f"{module}.{attr}" for _, bindings in spans.WRAPPED for module, attr in bindings
            if not hasattr(importlib.import_module(f"aoi_isac.{module}"), attr)] == []


def test_every_public_name_resolves():
    assert [name for name in aoi_isac.__all__ if not hasattr(aoi_isac, name)] == []


def test_the_cli_loads_no_reference_module(tmp_path):
    # a fresh interpreter outside the checkout, with only src/ on the path
    code = ("import sys, aoi_isac.cli\n"
            "print(sorted(m for m in sys.modules if 'reference' in m.split('.')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# public functions that only tests call, each with the reason it stays
TEST_ONLY_ALLOWED = {
    # perfbench/spans.py wraps both, so they move with the next change to
    # the benchmark
    "solver.value_iteration", "sim.rollout",
}


def _references(nodes):
    """The names and the attribute names that the code of nodes reads."""
    names, attrs = set(), set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def test_every_public_function_has_a_non_test_caller():
    # A function is run when run code reads its name, a method only as an
    # attribute (a local variable may share its name). Run code starts at
    # demos/, scripts/, the package's code outside any function (__main__.py,
    # tables built at import) and the special methods Python calls itself;
    # __init__.py's re-exports do not count. Following the reads from there
    # leaves the functions that only tests call.
    functions, entry = [], []  # functions: (qualified name, is a method, node)
    for path in sorted((ROOT / "src" / "aoi_isac").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            method = isinstance(top, ast.ClassDef)
            scope = f"{path.stem}.{top.name}" if method else path.stem
            for node in top.body if method else [top]:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    functions.append((f"{scope}.{node.name}", method, node))
                else:
                    entry.append(node)
    for path in sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("scripts/*.py")):
        entry.append(ast.parse(path.read_text()))
    names, attrs = _references(entry)
    pending = functions
    while run := [f for f in pending
                  if f[2].name in attrs or (not f[1] and f[2].name in names)]:
        pending = [f for f in pending if f not in run]
        more_names, more_attrs = _references(f[2] for f in run)
        names |= more_names
        attrs |= more_attrs
    unused = {qualified for qualified, _, node in pending
              if not node.name.startswith("_")}
    assert sorted(unused - TEST_ONLY_ALLOWED) == []
