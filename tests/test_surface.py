"""The exported surface is reached from outside the tests.

Every name in ``streampeaks.__all__`` must be read somewhere outside the
module that defines it: in another package module (``__init__.py``
aside), in ``bench/`` or in ``demos/``.  Every public method of a
package class must be read, as an attribute, somewhere in ``src/``,
``bench/`` or ``demos/``.  A name that only tests reach belongs in
``tests/_oracles.py``.
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


def _parsed() -> dict[Path, ast.Module]:
    """The package's modules (``__init__.py`` aside), ``bench/`` and
    ``demos/``, parsed."""
    files = [p for p in sorted((ROOT / "src" / "streampeaks").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py"))
    return {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in files}


def reached_names() -> set[str]:
    reached = set()
    for tree in _parsed().values():
        reached |= _loaded(tree) - _defined(tree)
    return reached


def test_every_export_is_reached_outside_tests():
    unreached = sorted(set(streampeaks.__all__) - reached_names())
    assert unreached == []


def test_every_public_method_is_reached_outside_tests():
    trees = _parsed()
    read = set()
    for tree in trees.values():
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    unreached = sorted(
        f"{cls.name}.{fn.name}"
        for path, tree in trees.items() if path.parent.name == "streampeaks"
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_") and fn.name not in read)
    assert unreached == []
