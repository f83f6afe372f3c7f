"""Source hygiene of the package, checked with the standard-library ast
module: no module imports a name it never uses, no private top-level
helper or private method of a top-level class goes unreferenced, no public
name has only the tests for a user unless KEEP says why, only the
randomness module hashes, every name that bench/tracing.py patches exists
where the tracer looks for it, and the memo tables its hooks read hold
what a sample drew."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from irslab.laws import NormalizerLaw, PoulsenLaw, trivial_law
from irslab.normalizer import NormalizerOracle, _HashMarks
from irslab.oracles import ball
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


# Public names whose one user is the test suite, each kept for a reason.
KEEP = {
    "normalizer.mark": "the keyed mark of one vertex written out, the "
                       "reference the tests check the memoized marks against",
    "oracles.sub_ball": "a smaller ball read from a stored view, for metric "
                        "to compare two balls at every radius (ROADMAP item 9)",
    "poulsen.star_ball": "the unsurgered ball of a percolation graph, whose "
                         "surgery the tests check PoulsenOracle against",
}


def _public_names():
    """(module.name, name) of each public top-level function, class and
    constant of the package, and module.Class.name of each public method
    of a top-level class."""
    for path in MODULES:
        module = path.stem
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield f"{module}.{name}", name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_public_names_are_referenced():
    """A name only the tests read is test support and lives in
    tests/helpers.py, unless KEEP gives a reason to keep it; each KEEP
    entry must name a public name. A user is a name read in src/, scripts/
    or bench/, bare or as an attribute, or a string constant of bench/,
    since bench/tracing.py patches functions by name; the re-exports of the
    package module do not count. A method's user must read it as an
    attribute (`x.name`) or be such a string. Users are matched by
    spelling, so an unrelated name (bench's `clock.mark()`, or `dict.keys`
    for a method `keys`) can count as one."""
    used, attributes = set(), set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            tree = _tree(path)
            used |= _used_names(tree)
            attributes |= {node.attr for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute)}
            if top == "bench":
                attributes |= {node.value for node in ast.walk(tree)
                               if isinstance(node, ast.Constant)
                               and isinstance(node.value, str)}
    used |= attributes
    public = dict(_public_names())
    assert set(KEEP) <= set(public), set(KEEP) - set(public)
    unused = [qualified for qualified, name in public.items()
              if name not in (attributes if qualified.count(".") == 2
                              else used) and qualified not in KEEP]
    assert not unused, f"public names only the tests use: {unused}"


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
