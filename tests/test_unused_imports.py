"""Every name a module of the package imports is read in that module.

Each ``src/alcove_kl/*.py`` is parsed with ``ast``, and an imported name
that no expression of the module loads fails its case.  ``__future__``
imports are exempt, and a name read only in annotations, string
annotations included, counts as read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alcove_kl"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    """The names the module loads, in code and in annotations."""
    trees = [tree]
    for annotation in annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unread = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in read]
    assert not unread, f"{path.name} imports names it never reads: {', '.join(unread)}"


def test_the_check_sees_a_stray_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from json import dumps, loads\n"
        "from pathlib import Path\n"
        "from typing import Mapping\n"
        "def f(x: 'Path', y: Mapping) -> int:\n"
        "    return loads(x)\n"
    )
    read = read_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in read] == ["os", "dumps"]
