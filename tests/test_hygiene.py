"""Source hygiene that no installed linter checks: every name a package
module imports is used in that module or re-exported through __all__,
every module-level private name is referenced somewhere in the package,
and every module-level public name is read by the package, the benchmark
or the tools, or is allowed by name with its reason.  Also the
benchmark's contract with the package: the names it wraps, calls and
reads by position still exist with the signatures it assumes."""

import ast
import dataclasses
import importlib.util
import inspect
import os
from pathlib import Path

import pytest

import jointeec
from jointeec import DEFAULT_TOL, asymptotics, cli, gauss, kacrice, montecarlo
from jointeec.model import fixture

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


def package_imports(source):
    """The package modules a module's source imports, by relative import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def test_detector_reads_relative_imports():
    src = "import numpy\nfrom . import gauss, model as m\nfrom .common import X\n"
    assert package_imports(src) == {"gauss", "model", "common"}


@pytest.mark.parametrize("module", ["asymptotics", "montecarlo"])
def test_independent_routes_share_no_engine(module):
    # the closed forms and Monte Carlo check the face-pair sum, so neither
    # runs its Gaussian kernels, its quadrature or the sum itself
    source = (Path(jointeec.__file__).parent / f"{module}.py").read_text()
    assert not package_imports(source) & {"gauss", "quadrature", "kacrice"}


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
    "corner_corner_term": "one corner's orthant through gauss.mvn_cdf, which the benchmark "
                          "tracer counts; a sum's corners take the same regions through "
                          "_corner_terms, and the tests check them against it",
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


# ---------------------------------------------------------------------------
# the benchmark's contract: perfbench/tracer.py wraps package functions by
# name and reads their arguments by position, and perfbench/make_reference.py
# calls closed_form and _restricted_pairs positionally.  Deleting or
# re-signing one of them breaks the traced benchmark run.

def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_removes():
    tracer = _load_tracer()
    originals = (cli.run, kacrice.face_pair_integral, gauss.mvn_cdf)
    trc = tracer.Tracer()
    trc.install()
    try:
        assert all(f is not g for f, g in zip(originals, (
            cli.run, kacrice.face_pair_integral, gauss.mvn_cdf)))
        argv = ["eec", "--model", "corner-semidegenerate", "--u", "6", "--out", os.devnull]
        assert cli.run(argv) == 0
        assert cli.run([*argv, "--theorem", "3.3-restricted"]) == 0
        # a sum's corners run through kacrice._corner_terms and gauss.mvn_cdfs,
        # which the tracer does not wrap, so the counts come from direct
        # calls of the names it wraps
        mod = fixture("corner-semidegenerate")
        kacrice.face_pair_integral(mod, "Left", "Left", 6.0)
        kacrice.corner_corner_term(mod, 0.0, 0.0, 6.0)
        # a dropped derivative constraint is a -inf bound, which the tracer
        # counts out of the dimension
        kacrice.corner_corner_term(mod, 0.0, 0.0, 6.0, constrain_y=False)
    finally:
        trc.remove()
    assert (cli.run, kacrice.face_pair_integral, gauss.mvn_cdf) == originals
    metrics, _ = trc.layer_metrics(0, len(trc.spans))
    assert metrics["kacrice.term.corner.evals"] > 0
    assert metrics["gauss.mvn_cdf.d4.calls"] == 1
    assert metrics["gauss.mvn_cdf.d3.calls"] == 1


def test_benchmark_observes_the_ess(monkeypatch):
    tracer = _load_tracer()
    monkeypatch.setattr(montecarlo, "estimate_joint_excursion",
                        montecarlo.estimate_joint_excursion)
    sink = []
    tracer.observe_ess(sink)
    mod = fixture("interior-point")
    shift = asymptotics.classify(mod).maximizers[0]
    est = montecarlo.estimate_joint_excursion(mod, 3.0, 64, 200, 1, shift)
    assert est.method == "ImportanceSampled"
    assert len(sink) == 1 and sink[0][0] > 0.0 and sink[0][1] == sink[0][0] / 200


def test_benchmark_calls_bind():
    mod = fixture("corner-semidegenerate")
    cls = asymptotics.classify(mod)
    inspect.signature(asymptotics.closed_form).bind(mod, cls, 1.0)
    inspect.signature(kacrice._restricted_pairs).bind(mod, cls, DEFAULT_TOL.gradient_tol)
    tracer = _load_tracer()
    params = lambda f: list(inspect.signature(f).parameters)  # noqa: E731
    for fn, pos in tracer._MC_GRID_ARG.items():
        assert params(getattr(montecarlo, fn))[pos:pos + 2] == ["grid_n", "reps"]
    assert params(kacrice.face_pair_integral)[1:3] == ["face_x", "face_y"]
    assert params(gauss.mvn_cdf)[1] == "lower"
    assert "factorization_cond" in {f.name for f in dataclasses.fields(montecarlo.PathBatch)}
