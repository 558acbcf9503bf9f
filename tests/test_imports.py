"""Source hygiene: every name a module of the package imports is used in that module, every
private name a module defines at top level is read somewhere in the package, and every public
top-level function or class is exported or read outside its own definition."""

import ast
from pathlib import Path

import pytest

import mvpo

_SOURCES = sorted(Path(mvpo.__file__).parent.glob("*.py"))
_MODULES = [p for p in _SOURCES if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    """The names `source` imports (`__future__` aside) that no expression in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom x import a, b as c\nc(np)\n"
    assert _unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _top_level_privates(tree: ast.Module) -> set[str]:
    """The single-underscore names a module binds at top level: functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _reads(node: ast.AST) -> set[str]:
    """The names and attribute names that the code under `node` reads."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
    return read


def _unread_privates(sources: dict[str, str]) -> list[str]:
    """`module.name` for each top-level private name that no expression in any of `sources` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items() for name in _top_level_privates(tree) - read)


def test_the_check_finds_unread_privates():
    sources = {
        "a": "_X = 1\n_Y, _Z = 2, 3\n__all__ = []\ndef _f():\n    return _X\nclass _C:\n    pass\n",
        "b": "from a import _C\nimport a\nprint(_C, a._Z)\n",
    }
    assert _unread_privates(sources) == ["a._Y", "a._f"]


def test_every_private_name_is_read():
    assert _unread_privates({p.stem: p.read_text() for p in _SOURCES}) == []


def _unread_publics(sources: dict[str, str]) -> list[str]:
    """`module.name` for each public top-level function or class of a module other than `__init__`
    that `__init__` does not export and no code outside its own definition reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    statements = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        and not any(node.name in read for other, read in statements if other is not node)
    )


def test_the_check_finds_unread_publics():
    sources = {
        "__init__": "from .a import f\n",
        "a": "def f():\n    return g()\ndef g():\n    pass\ndef h():\n    return h()\nclass C:\n    pass\n",
        "b": "from . import a\nclass D:\n    pass\nprint(a.g, D)\n",
    }
    # f is exported, g and D are read elsewhere; h reads only itself and C nothing reads
    assert _unread_publics(sources) == ["a.C", "a.h"]


def test_every_public_function_and_class_is_exported_or_read():
    assert _unread_publics({p.stem: p.read_text() for p in _SOURCES}) == []
