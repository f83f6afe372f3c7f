"""Source hygiene of the package, checked with the standard-library ast
module: no module imports a name it never uses, no top-level helper,
private or public, and no private method of a top-level class goes
unreferenced, only the randomness module hashes, every name that
bench/tracing.py patches exists where the tracer looks for it, and the
memo tables its hooks read hold what a sample drew."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from irslab import NormalizerLaw, PoulsenLaw, ball, trivial_law
from irslab.normalizer import NormalizerOracle, _HashMarks
from irslab.poulsen import PoulsenOracle

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irslab"
MODULES = sorted(PACKAGE.glob("*.py"))
IMPORTERS = [path for path in MODULES if path.name != "__init__.py"]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST) -> set:
    """Every name that a module reads, bare or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported(tree: ast.Module):
    """(bound name, line) of each import but __future__ ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """The package module is left out: it imports to re-export."""
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class, and of
    each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def test_private_helpers_are_referenced():
    """A private top-level helper, or a private method of a top-level
    class, must be read somewhere in the package."""
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unused = [
        f"{path}.{qualified}"
        for path, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name.startswith("_") and not name.startswith("__")
        and name not in referenced
    ]
    assert not unused, f"private helpers nothing references: {unused}"


def test_public_names_are_referenced():
    """A public top-level function or class must be read somewhere in
    src/, tests/, scripts/ or bench/: by name, as an attribute or as a
    string naming it (bench/tracing.py patches functions by name). Its own
    definition and the re-export in the package module do not count."""
    referenced = set()
    for top in ("src", "tests", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            tree = _tree(path)
            referenced |= _used_names(tree)
            referenced |= {node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant)
                           and isinstance(node.value, str)}
    unused = [
        f"{path.name}.{node.name}"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in referenced
    ]
    assert not unused, f"public names nothing references: {unused}"


def test_only_randomness_imports_hashing():
    """Keyed draws own the byte encoding of keys, so blake2b is imported in
    the randomness module alone."""
    hashers = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[0] in ("hashlib", "blake2b")
                   for name in names):
                hashers.append(f"{path.name} (line {node.lineno})")
    assert [h.split()[0] for h in hashers] == ["randomness.py"], hashers


def _bench_table(name: str) -> tuple:
    """A literal table of bench/tracing.py, read without importing it."""
    tree = _tree(ROOT / "bench" / "tracing.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py has no {name} table")


@pytest.mark.parametrize("module, function, counter", _bench_table("FUNCTIONS"))
def test_traced_functions_exist(module, function, counter):
    """The tracer patches each of these by name; a missing one breaks a
    traced run."""
    assert callable(getattr(importlib.import_module(f"irslab.{module}"),
                            function, None)), f"irslab.{module}.{function}"


@pytest.mark.parametrize("module, cls, method, counter", _bench_table("METHODS"))
def test_traced_methods_sit_in_their_class_body(module, cls, method, counter):
    """The tracer reads `vars(cls)[method]`, so an inherited method is not
    enough."""
    owner = getattr(importlib.import_module(f"irslab.{module}"), cls)
    assert method in vars(owner), f"irslab.{module}.{cls}.{method}"


def test_traced_memo_tables_fill_as_a_sample_is_walked(monkeypatch):
    """The tracer collects Poulsen samples through a hook on
    `PoulsenOracle.__init__`, then reads `graph._copies` (paths to base
    copies) and `graph._perc`; it counts mark lookups through
    `_HashMarks.__call__` and hits in `_HashMarks.cache`."""
    built = []
    init = PoulsenOracle.__init__

    def hook(oracle, *args, **kwargs):
        init(oracle, *args, **kwargs)
        built.append(oracle)

    monkeypatch.setattr(PoulsenOracle, "__init__", hook)
    p = Fraction(1, 2)
    oracle = PoulsenLaw(NormalizerLaw(trivial_law(2), p), p).sample(3)
    ball(oracle, 2)
    assert built == [oracle]
    copies, perc = oracle.graph._copies, oracle.graph._perc
    assert type(copies) is dict and type(perc) is dict and perc
    assert copies and all(type(path) is tuple for path in copies)
    for copy in copies.values():
        assert type(copy) is NormalizerOracle
        assert type(copy._mark) is _HashMarks
        assert type(copy._mark.cache) is dict and copy._mark.cache
