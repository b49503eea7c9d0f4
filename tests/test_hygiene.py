"""Source hygiene that no installed linter checks: every name a package
module imports is used in that module or re-exported through __all__,
every module-level private name is referenced somewhere in the package,
and every module-level public name is read by the package, the benchmark
or the tools, or is allowed by name with its reason."""

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



# Public names that stay public although nothing in the package, the
# benchmark or the tools reads them, each with its reason.
READER_DIRS = ("perfbench", "tools")
ALLOWED_UNREAD = {
    **dict.fromkeys(jointeec.__all__, "the package API, re-exported by jointeec/__init__"),
    "condition": "gauss's generic conditioning: the reference the kacrice and "
                 "acceptance tests check the integrands' conditional covariances against",
}


def _defined_names(stmt):
    """Module-level names bound by one statement: def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _reads(stmt):
    """Names one statement reads: bare, as an attribute, or as an
    identifier string (the benchmark's tracer wraps functions by name)."""
    return _references(stmt) | {
        n.value for n in ast.walk(stmt) if isinstance(n, ast.Constant)
        and isinstance(n.value, str) and n.value.isidentifier()}


def unread_publics(package, readers):
    """(module, name) for every module-level public name of package
    ({module: text}) that no top-level statement of package or readers
    (more {file: text}) reads, its own definition and __all__ aside.  An
    import is not a read: a re-export counts only where it is used."""
    reads, publics = [], []
    for mod, text in [*package.items(), *readers.items()]:
        for stmt in ast.parse(text).body:
            names = _defined_names(stmt)
            if "__all__" in names:
                continue
            reads.append((stmt, _reads(stmt)))
            if mod in package:
                publics += [(mod, n, stmt) for n in names if not n.startswith("_")]
    return sorted((mod, name) for mod, name, own in publics
                  if not any(name in refs for stmt, refs in reads if stmt is not own))


def test_detector_flags_an_unread_public():
    package = {
        "a.py": "__all__ = ['used', 'dead']\ndef used():\n    return 1\n"
                "def dead():\n    return dead()\nLIMIT = 3\n",
        "b.py": "from . import a\nclass Shown:\n    pass\n",
    }
    readers = {"bench.py": "from pkg import a, b\na.used()\nwrap(b, 'Shown')\n"}
    assert unread_publics(package, readers) == [("a.py", "LIMIT"), ("a.py", "dead")]


def test_every_public_name_is_read():
    root = Path(__file__).resolve().parents[1]
    package = {path.name: path.read_text() for path in MODULES}
    readers = {str(path): path.read_text()
               for d in READER_DIRS for path in sorted((root / d).glob("*.py"))}
    unread = [(mod, name) for mod, name in unread_publics(package, readers)
              if name not in ALLOWED_UNREAD]
    assert unread == []
