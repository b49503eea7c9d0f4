"""Source hygiene that no installed linter checks: every name a package
module imports is used in that module or re-exported through __all__, and
every module-level private name is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

import jointeec

MODULES = sorted(Path(jointeec.__file__).parent.glob("*.py"))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    skip = used | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in skip)


def test_detector_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom a import b, c\nc()\n"
    assert unused_imports(src) == [(2, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree):
    """Module-level _names bound by def, class or assignment (dunders aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """Every name read in the tree, bare or as an attribute of a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def unreferenced_privates(sources):
    """(module, name) for every module-level private name in sources
    ({module: text}) that no module reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = set().union(*(_references(t) for t in trees.values()))
    return sorted((mod, name) for mod, tree in trees.items()
                  for name in _private_definitions(tree) if name not in refs)


def test_detector_flags_an_unreferenced_private():
    sources = {
        "a": "_used = 1\n_dead = 2\n__all__ = []\ndef _helper():\n    return _used\n",
        "b": "from . import a\na._helper()\nclass _Gone:\n    pass\n",
    }
    assert unreferenced_privates(sources) == [("a", "_dead"), ("b", "_Gone")]


def test_every_private_helper_is_referenced():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unreferenced_privates(sources) == []
