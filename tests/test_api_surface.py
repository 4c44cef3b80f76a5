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
import importlib
import os
import subprocess
import sys
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


#: Names the benchmark harness wraps or imports that the package no longer
#: defines; the harness's wrapper records them as missing and goes on.
STALE_IN_BENCH = {"algebra._gcd_by_interpolation", "algebra._gcd_prs",
                  "cli.run_derivative_suite", "ode.LinearODE2.substitute_params"}


def _tracer_rows() -> list[tuple]:
    """The rows of ``FUNCTIONS`` and ``METHODS`` in ``bench/tracing.py``, read
    without importing it: both tables are pure expressions."""
    rows = []
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tracing.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS"):
            rows += eval(compile(ast.Expression(node.value), "tracing.py", "eval"),
                         {"__builtins__": {}})
    return rows


def _bench_names() -> set[str]:
    """Every package name the tracer wraps and the benchmark pass imports.

    Read from the sources without importing them: the tables ``FUNCTIONS``
    and ``METHODS`` of ``bench/tracing.py`` are pure expressions, and
    ``bench/pass_main.py`` names the rest in ``from heunlab... import``
    statements, or as attributes of a module it imports that way.
    """
    names = {".".join(row[:-1]) for row in _tracer_rows()}
    pass_main = ast.parse((ROOT / "bench" / "pass_main.py").read_text(encoding="utf-8"))
    modules = set()  # the modules imported by name, as in ``from heunlab import numeric``
    for node in ast.walk(pass_main):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("heunlab"):
            module = node.module.removeprefix("heunlab").lstrip(".")
            names.update(".".join(filter(None, (module, alias.name)))
                         for alias in node.names)
            if not module:
                modules.update(alias.asname or alias.name for alias in node.names)
    names.update(f"{node.value.id}.{node.attr}" for node in ast.walk(pass_main)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    return names


def test_bench_names_exist():
    missing = []
    names = _bench_names()
    for name in sorted(names):
        module, _, rest = name.partition(".")
        obj = importlib.import_module(f"heunlab.{module}")
        for attr in rest.split(".") if rest else ():
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert len(names) > 30
    assert set(missing) == STALE_IN_BENCH


def test_cli_import_loads_every_traced_layer_and_no_dataclasses():
    """``import heunlab.cli`` loads every module the tracer wraps, since its
    ``install`` reaches only the loaded ones, and neither ``dataclasses`` nor
    ``inspect``, which the records and caches do without."""
    code = "import heunlab.cli, sys; print(*sorted(sys.modules))"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    loaded = set(run.stdout.split())
    assert {"dataclasses", "inspect"} & loaded == set()
    assert {f"heunlab.{row[0]}" for row in _tracer_rows()} - loaded == set()
