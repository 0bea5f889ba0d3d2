"""Every import in the package sits at module level, so the import graph is
the one the module headers show and it has no cycle to hide."""

import ast
from pathlib import Path

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
