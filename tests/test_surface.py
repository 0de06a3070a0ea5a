"""The package carries no dead code: every function, method and class
defined in ``src/dirmarl`` is used somewhere in ``src/dirmarl``.

Code that only tests call is a second implementation to keep in step,
so it fails here.  The scan reads the source with ``ast`` and counts a
function or class as used when its name appears as a name, an
attribute or an import alias outside its own definition, and a method
only when it appears as an attribute (a local variable of the same
name does not call it).  Dunders are exempt, and the names
``__init__.py`` exports count as used through its imports."""

from __future__ import annotations

import ast
import os
from collections import Counter

import dirmarl

PACKAGE = os.path.dirname(os.path.abspath(dirmarl.__file__))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(tree: ast.AST, attributes_only: bool) -> Counter:
    """How often each name is used in ``tree``: as an attribute
    (``x.name``) only, or as a name, an attribute or an import alias."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
            if node.asname:
                found[node.asname] += 1
    return found


def unused_definitions(package: str) -> list[str]:
    """``file:line name`` of every definition in ``package`` that is
    used nowhere in it outside the definition itself."""
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    totals = {only: sum((_uses(tree, only) for tree in trees.values()), Counter())
              for only in (False, True)}
    unused = []
    for fname, tree in trees.items():
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            method = id(node) in methods
            if totals[method][node.name] - _uses(node, method)[node.name] < 1:
                unused.append((fname, node.lineno, node.name))
    return [f"{fname}:{line} {name}" for fname, line, name in sorted(unused)]


def test_every_src_definition_is_used_in_src():
    assert unused_definitions(PACKAGE) == []


def test_the_scan_finds_an_unused_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\n")
    (tmp_path / "a.py").write_text(
        "def kept():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def size(self):\n        return len(self)\n\n"
        "    def count(self):\n        return 0\n\n\n"
        "def counted(box):\n    count = len(box)\n    return count\n")
    assert unused_definitions(str(tmp_path)) == ["a.py:9 orphan", "a.py:13 Box",
                                                 "a.py:17 size", "a.py:20 count",
                                                 "a.py:24 counted"]
