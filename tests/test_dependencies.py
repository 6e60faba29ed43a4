"""Dependency audit: what the package and its tests import matches what it declares.

Every ``import`` under ``src/nsfde`` and ``tests`` is read with ``ast``,
function-local ones included, so a lazily imported module counts as much as
one at the top.  The same pass finds unused imports and private module names
that no package module reads.
"""
import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports(root):
    """Top-level names of every absolute import under ``root`` that is neither
    the standard library nor the package itself."""
    tops = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops.add(node.module.partition(".")[0])
    return tops - set(sys.stdlib_module_names) - {"nsfde"}


def _names(deps):
    """Lowercased distribution names of requirement strings."""
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}


@pytest.fixture(scope="module")
def project():
    try:
        import tomllib
    except ModuleNotFoundError:             # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_the_package_imports_only_numpy_yaml_and_orjson():
    assert _third_party_imports(ROOT / "src" / "nsfde") == {"numpy", "yaml", "orjson"}


def test_declared_dependencies_match_the_imports(project):
    assert _names(project["dependencies"]) == {"numpy", "pyyaml", "orjson"}
    # the tests keep scipy as their reference quadrature and statistics
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_the_tests_import_only_declared_packages(project):
    # the dependencies plus the test extra, by import name: a test importing an
    # undeclared package fails here, not on a fresh machine
    declared = _names(project["dependencies"] + project["optional-dependencies"]["test"])
    importable = {"yaml" if name == "pyyaml" else name for name in declared}
    assert _third_party_imports(ROOT / "tests") - importable == set()


def test_serialize_imports_nothing_from_config():
    # the file formats stand below the run configuration: serialize takes its
    # finiteness predicate from errors
    path = ROOT / "src" / "nsfde" / "serialize.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert [name for name in names if "config" in name.split(".")] == []


def _unused_imports(path):
    """Names that ``path`` binds by an import and never reads (``from __future__``
    imports aside)."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(p for p in (ROOT / "src" / "nsfde").glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # __init__.py imports to re-export; every other module imports to use
    assert _unused_imports(path) == []


def _module_private_names(tree):
    """Private names (one leading underscore, not dunder) a module binds at its top
    level: functions, classes and assignment targets."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def _references(tree):
    """Every name ``tree`` reads: bare names, attributes and names imported from a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_module_name_has_a_caller_in_the_package():
    # code no caller in the package uses gets deleted: a private helper or constant
    # kept alive only by the tests is dead code
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "nsfde").glob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    unused = {f"{name}:{private}" for name, tree in trees.items()
              for private in _module_private_names(tree) - referenced}
    assert unused == set()


def test_no_private_dataclass_field_is_passed_on_by_replace():
    # dataclasses.replace passes every init field to the object it makes, so a private
    # cache declared as one would be shared with that object and serve it stale results
    shared = set()
    for path in sorted((ROOT / "src" / "nsfde").glob("*.py")):
        if path.stem.startswith("__"):   # __main__ runs the command line on import
            continue
        module = importlib.import_module(f"nsfde.{path.stem}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                shared.update(f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                              if f.name.startswith("_") and f.init)
    assert shared == set()
