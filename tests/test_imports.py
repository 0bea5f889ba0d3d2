"""Every import in the package sits at module level, so the import graph is
the one the module headers show and it has no cycle to hide. The data side
(``pipeline``, ``synthetic``, ``sampler``, ``formats``) is plain numpy and
loads none of the model side. No module of the package, the tests or the
tools imports a name it never reads."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hdrmask

SOURCES = sorted(Path(hdrmask.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parent.parent


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


def unused_module_imports(source):
    """``(line, name)`` of each module-level import that binds a name the
    module never reads; an import line marked ``# noqa: F401`` (a
    re-export) is left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or \
                getattr(stmt, "module", None) == "__future__" or \
                "# noqa: F401" in "\n".join(lines[stmt.lineno - 1:stmt.end_lineno]):
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((stmt.lineno, name))
    return unused


def test_unused_import_scan_sees_each_form():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "import numpy as np\nfrom x import (y,\n    z)\n"
              "from w import v  # noqa: F401\nnp.zeros(a.b)\n")
    assert unused_module_imports(source) == [(2, "os"), (5, "y"), (5, "z")]


def test_no_unused_module_imports():
    paths = [p for d in ("src/hdrmask", "tests", "tools") for p in sorted((REPO / d).glob("*.py"))]
    unused = [f"{path.relative_to(REPO)}:{line} {name}" for path in paths
              for line, name in unused_module_imports(path.read_text())]
    assert len(paths) > 20
    assert unused == []
