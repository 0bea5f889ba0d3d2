"""Every file the package writes goes through ``formats._replacing``, which
writes a temporary beside the target and replaces the target only when the
whole file is written, and refuses a FIFO or a directory in its place. A scan
of the package's source finds each call that opens a file for writing and
fails on any outside that helper."""

import ast
from pathlib import Path

import hdrmask

SOURCES = sorted(Path(hdrmask.__file__).parent.glob("*.py"))
PLACEMENT = ("formats.py", "_replacing")
# Calls that write a file whatever their arguments.
WRITER_METHODS = {"tofile", "write_text", "write_bytes", "save", "savez",
                  "savez_compressed", "savetxt", "fdopen"}


def _writes(call):
    """Whether ``call`` opens a file for writing: ``open`` (bare, ``io.`` or
    ``builtins.``) with a mode that is not a constant free of w, a, x and +,
    ``os.open`` with any flags, or a writer method."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if name == "open" and owner == "os":
        return True
    if name == "open" and (isinstance(func, ast.Name) or owner in ("io", "builtins")):
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
    return isinstance(func, ast.Attribute) and name in WRITER_METHODS


def file_writes(source):
    """``(line, function)`` of each call in ``source`` that opens a file for
    writing, with the name of the innermost function around it ("" at
    module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call) and _writes(child):
                found.append((child.lineno, function))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_file_write_scan_sees_each_form():
    source = ("import io, os\nopen(p)\nopen(p, 'rb')\nopen(p, mode='r')\n"
              "def f(p, m):\n    open(p, 'w')\n    io.open(p, mode='ab')\n"
              "    open(p, m)\n    os.open(p, os.O_RDONLY)\n    a.tofile(p)\n"
              "    def g():\n        q.write_text('x')\n    open(p, 'r+')\n"
              "fh.write(b'')\nx.open()\n")
    assert file_writes(source) == [(6, "f"), (7, "f"), (8, "f"), (9, "f"), (10, "f"),
                                   (12, "g"), (13, "f")]


def test_only_the_placement_helper_opens_a_file_for_writing():
    writes = [(path.name, line, function) for path in SOURCES
              for line, function in file_writes(path.read_text())]
    assert len(SOURCES) > 1
    assert [w for w in writes if (w[0], w[2]) == PLACEMENT], "the scan sees the helper"
    assert [w for w in writes if (w[0], w[2]) != PLACEMENT] == []
