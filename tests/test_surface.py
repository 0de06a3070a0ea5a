"""The package carries no dead code: every function, method and class
defined in ``src/dirmarl`` is used somewhere in ``src/dirmarl``.

Code that only tests call is a second implementation to keep in step,
so it fails here.  The scan reads the source with ``ast`` and counts a
function or class as used when its name appears as a name, an
attribute or an import alias outside its own definition, and a method
only when it appears as an attribute (a local variable of the same
name does not call it).  Dunders are exempt, and the names
``__init__.py`` exports count as used through its imports.

The same holds for parameters: a defaulted parameter of a module-level
function or of a method that no call in src, tests, scripts or the
benchmark ever passes is a setting nobody sets, so it fails too.

And for imports: no module in src, tests or scripts imports a name it
never uses.  ``from __future__`` imports, the re-exports of an
``__init__.py`` and an import on a line marked ``noqa`` are exempt."""

from __future__ import annotations

import ast
import os
from collections import Counter

import dirmarl

PACKAGE = os.path.dirname(os.path.abspath(dirmarl.__file__))
REPO = os.path.dirname(os.path.dirname(PACKAGE))
CALLERS = [os.path.join(REPO, d) for d in ("src", "tests", "scripts", "perfbench")]
IMPORTERS = [os.path.join(REPO, d) for d in ("src", "tests", "scripts")]
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


def _parse_tree(root: str) -> dict:
    """Every ``.py`` file under ``root``, parsed, by path."""
    trees = {}
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    trees[path] = ast.parse(fh.read(), filename=path)
    return trees


def _defaulted_parameters(tree: ast.Module):
    """(function node, the name its calls use, the parameters that
    positional arguments fill in order, the names of its defaulted
    parameters) for every module-level function and every method of a
    module-level class; nested closures are exempt.  A class name calls
    its ``__init__``, and a method call binds ``self`` first."""
    scopes = [(node, None) for node in tree.body]
    scopes += [(node, cls) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body]
    for node, cls in scopes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if not defaulted:
            continue
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        callee = cls.name if cls is not None and node.name == "__init__" else node.name
        yield node, callee, positional[int(bound):], defaulted


def unpassed_parameters(package: str, callers: list[str]) -> list[str]:
    """``file:line function(parameter)`` for every defaulted parameter of
    a definition in ``package`` that no call under ``callers`` passes.  A
    call that names the function passes it by keyword or by position
    (``f(...)`` or ``x.f(...)``; a class name calls its ``__init__``),
    and a call with ``*args`` or ``**kwargs`` passes every one."""
    calls = [node for root in callers for tree in _parse_tree(root).values()
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    by_name = {}
    for call in calls:
        f = call.func
        name = getattr(f, "id", None) or getattr(f, "attr", None)  # f(...) or x.f(...)
        by_name.setdefault(name, []).append(call)
    missing = []
    for path, tree in _parse_tree(package).items():
        for node, callee, positional, defaulted in _defaulted_parameters(tree):
            passed = set()
            for call in by_name.get(callee, []):
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                        kw.arg is None for kw in call.keywords):
                    passed.update(defaulted)
                passed.update(a.arg for a in positional[:len(call.args)])
                passed.update(kw.arg for kw in call.keywords)
            missing += [(os.path.relpath(path, package), node.lineno, f"{node.name}({p})")
                        for p in defaulted if p not in passed]
    return [f"{fname}:{line} {name}" for fname, line, name in sorted(missing)]


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unpassed_parameters(PACKAGE, CALLERS) == []


def test_the_scan_finds_a_parameter_nobody_passes(tmp_path):
    pkg, callers = tmp_path / "pkg", tmp_path / "callers"
    pkg.mkdir()
    callers.mkdir()
    (pkg / "a.py").write_text(
        "def f(x, by_position=1, by_keyword=2, *, never=3):\n"
        "    def closure(y=4):\n        return y\n"
        "    return closure()\n\n\n"
        "class Box:\n"
        "    def __init__(self, size=0, label=''):\n        self.size = size\n\n"
        "    def grow(self, step=1, *, cap=None):\n        return self.size + step\n\n"
        "    @staticmethod\n"
        "    def make(size=5):\n        return Box(size)\n")
    (callers / "use.py").write_text(
        "from a import Box, f\n\n"
        "f(0, 1)\n"
        "f(0, by_keyword=2)\n"
        "g(never=3)\n"
        "box = Box(3)\n"
        "box.grow(2)\n"
        "Box.make(4)\n"
        "box.grow(**{})\n")
    assert unpassed_parameters(str(pkg), [str(pkg), str(callers)]) == [
        "a.py:1 f(never)", "a.py:8 __init__(label)"]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def unused_imports(roots: list[str]) -> list[str]:
    """``file:line name`` for every import under ``roots`` whose name the
    module never uses.  ``import a.b`` is used where ``a.b`` heads a
    dotted name; any other import where its bound name is a name."""
    base, unused = os.path.commonpath(roots), []
    for path, tree in (item for root in roots for item in _parse_tree(root).items()):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        used = set()
        for node in ast.walk(tree):
            name = _dotted(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
            while name:
                used.add(name)
                name = name.rpartition(".")[0]
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or "noqa" in lines[alias.lineno - 1]:
                    continue
                bound = alias.asname or alias.name  # dotted only for ``import a.b``
                if bound not in used:
                    unused.append((os.path.relpath(path, base), alias.lineno, bound))
    return [f"{fname}:{line} {name}" for fname, line, name in sorted(unused)]


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(IMPORTERS) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import reexported\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import json\n"
        "import os.path\n"
        "import xml.dom\n"
        "from io import BytesIO, StringIO as Text\n"
        "from sys import (argv,\n"
        "                 path)\n"
        "from zlib import crc32  # noqa: F401\n\n\n"
        "def reexported(x: Text) -> str:\n"
        "    import math\n"
        "    return json.dumps(os.path.join(*argv)) + xml.__name__\n")
    assert unused_imports([str(tmp_path)]) == [
        "a.py:5 xml.dom", "a.py:6 BytesIO", "a.py:8 path", "a.py:13 math"]
