"""The public names and the bindings that perfbench/spans.py wraps resolve,
and the CLI runs without the tests' reference module."""

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
