"""Every import in the package sits at module level, so the import graph is
the one the module headers show and it has no cycle to hide. The data side
(``pipeline``, ``synthetic``, ``sampler``, ``formats``) is plain numpy and
loads none of the model side."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hdrmask

SOURCES = sorted(Path(hdrmask.__file__).parent.glob("*.py"))


def test_no_import_inside_a_function():
    nested = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(SOURCES) > 1
    assert nested == []


@pytest.mark.parametrize("module", ["pipeline", "synthetic", "sampler", "formats"])
def test_data_side_loads_no_model_module(module):
    src = str(Path(hdrmask.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import hdrmask.{module}; "
            "print(' '.join(m for m in sys.modules if m.startswith('hdrmask.')))")
    loaded = set(subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True).stdout.split())
    assert f"hdrmask.{module}" in loaded
    assert loaded.isdisjoint({"hdrmask.tensor", "hdrmask.network", "hdrmask.losses"}), loaded
