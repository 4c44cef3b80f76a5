"""No public API that nothing calls.

Every public module-level function and class of ``heunlab``, and every public
method of its classes, must be referenced by name somewhere in the package or
in the benchmark harness (``bench/``), outside its own body.  References from
the tests do not count, nor do the re-exports of ``heunlab/__init__.py``: an
entry point kept alive only by its own tests is dead code.

A reference is a name, an attribute, or a string constant that is an
identifier (the benchmark's tracer wraps functions by their names).  The
check goes by name alone, so a method is taken for used when any attribute of
that name is read anywhere; it can miss dead code, never flag live code.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heunlab"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _names(tree: ast.AST) -> Counter:
    """Every name, attribute and identifier-like string constant in the tree."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) of the public functions, classes and methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_public_name_is_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            used += _names(tree)
    unused = []
    checked = 0
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, name, node in _public_definitions(tree):
            checked += 1
            if used[name] <= _names(node)[name]:
                unused.append(f"{path.stem}.{qualname}")
    assert checked
    assert unused == []
