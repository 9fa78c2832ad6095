"""Every name a binse module imports is read somewhere in that module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "binse"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


def test_no_unread_definitions():
    """Every module-level function and class is read by some binse module.

    A re-export in ``__init__.py`` does not count: code that only tests or
    the package namespace reach is dead weight in the program.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    reads = set()
    for tree in trees.values():
        reads |= read_names(tree)
        reads |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unread = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs) and node.name not in reads
    ]
    assert not unread, f"definitions no binse module reads: {', '.join(unread)}"


def test_cli_import_leaves_out_scipy():
    """binse needs only numpy at run time; importing scipy adds start-up time."""
    code = "import sys, binse.cli; sys.exit('scipy' in sys.modules)"
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
