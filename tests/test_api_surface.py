"""No public API that nothing calls.

Every public module-level function and class of ``heunlab``, and every public
method of its classes, must be referenced by name somewhere in the package or
in the benchmark harness (``bench/``), outside its own body.  References from
the tests do not count, nor do the re-exports of ``heunlab/__init__.py``: an
entry point kept alive only by its own tests is dead code.

A function or class is referenced by a bare name, an attribute, or a string
constant that is an identifier (the benchmark's tracer wraps functions by
their names).  A method is referenced only by an attribute or such a string:
a bare name never reaches it, so a local variable of the same name does not
count.  The check goes by name alone, so a method is taken for used when any
attribute of that name is read anywhere; it can miss dead code, never flag
live code.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heunlab"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """The bare names, and the attributes and identifier-like string constants."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            attrs[node.value] += 1
    return names, attrs


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
    names, attrs = Counter(), Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            tree_names, tree_attrs = _references(tree)
            names += tree_names
            attrs += tree_attrs
    unused = []
    checked = 0
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, name, node in _public_definitions(tree):
            checked += 1
            own_names, own_attrs = _references(node)
            uses = attrs[name] - own_attrs[name]
            if "." not in qualname:
                uses += names[name] - own_names[name]
            if uses <= 0:
                unused.append(f"{path.stem}.{qualname}")
    assert checked
    assert unused == []
