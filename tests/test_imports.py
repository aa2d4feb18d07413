"""Every name a module imports is read somewhere in that module, every name
of ``rvckit.__all__`` resolves once, and the names the package dropped stay
dropped.

An unused import still has to be kept in step with the name it imports, so
a rename or a signature change has one more place to miss.  Names listed in
a module's ``__all__`` count as read: they are imported to be re-exported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import rvckit
from rvckit.graphs import Graph
from rvckit.rainbow import PathWitness

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "rvckit", ROOT / "tests", ROOT / "demos")
    for path in folder.glob("*.py")
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\n"
    assert unused_imports(source) == [(1, "path"), (2, "sys")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Names the package no longer defines: each was read only by tests or only
# re-wrapped ``Graph.adjacency``.  (owner, name) pairs; the owner is the
# module or class that defined the name.
REMOVED = [
    ("graphs", "all_vertex_pairs"),
    ("graphs", "EMPTY_PAIRS"),
    ("graphs", "distances_from"),
    ("families", "connected_graphs_of_order"),
    ("rainbow", "is_rainbow_path"),
    ("Graph", "vertices"),
    ("Graph", "degree"),
    ("Graph", "neighbors"),
    ("PathWitness", "length"),
    ("PathWitness", "internal_vertices"),
]


@pytest.mark.parametrize("owner, name", REMOVED, ids=lambda x: x)
def test_removed_names_stay_gone(owner, name):
    classes = {"Graph": Graph, "PathWitness": PathWitness}
    holder = classes[owner] if owner in classes else importlib.import_module(f"rvckit.{owner}")
    assert not hasattr(holder, name)
    assert not hasattr(rvckit, name)
    assert name not in rvckit.__all__


def test_every_exported_name_resolves_once():
    assert len(rvckit.__all__) == len(set(rvckit.__all__))
    assert [name for name in rvckit.__all__ if not hasattr(rvckit, name)] == []
