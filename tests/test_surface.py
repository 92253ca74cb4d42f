"""The exported surface is reached from outside the tests.

Every name in ``streampeaks.__all__`` must be read somewhere outside the
module that defines it: in another package module (``__init__.py``
aside), in ``bench/`` or in ``demos/``.  A name that only tests reach
belongs in ``tests/_oracles.py``.
"""

import ast
from pathlib import Path

import streampeaks

ROOT = Path(__file__).resolve().parent.parent


def _defined(tree: ast.Module) -> set[str]:
    """Top-level function and class names of a module."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _loaded(tree: ast.Module) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def reached_names() -> set[str]:
    files = [p for p in sorted((ROOT / "src" / "streampeaks").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py"))
    reached = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        reached |= _loaded(tree) - _defined(tree)
    return reached


def test_every_export_is_reached_outside_tests():
    unreached = sorted(set(streampeaks.__all__) - reached_names())
    assert unreached == []
