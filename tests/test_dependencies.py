"""Dependency audit: what the package imports matches what it declares.

Every ``import`` under ``src/nsfde`` is read with ``ast``, function-local ones
included, so a lazily imported module counts as much as one at the top.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    """Top-level names of every absolute import under src/nsfde that is
    neither the standard library nor the package itself."""
    tops = set()
    for path in (ROOT / "src" / "nsfde").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops.add(node.module.partition(".")[0])
    return tops - set(sys.stdlib_module_names) - {"nsfde"}


def test_the_package_imports_only_numpy_yaml_and_orjson():
    assert _third_party_imports() == {"numpy", "yaml", "orjson"}


def test_declared_dependencies_match_the_imports():
    try:
        import tomllib
    except ModuleNotFoundError:             # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
             for dep in project["dependencies"]}
    assert names == {"numpy", "pyyaml", "orjson"}
    # the tests keep scipy as their reference quadrature and statistics
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


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
