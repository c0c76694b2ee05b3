"""Tests, demos and dimest's own modules share only public names, which all exist."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dimest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "dimest").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore-prefixed name imported from dimest."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = (node.module or "").split(".")
            names = parts[1:] + [a.name for a in node.names] if parts[0] == "dimest" else []
        elif isinstance(node, ast.Import):
            paths = [a.name.split(".") for a in node.names]
            names = [part for path in paths if path[0] == "dimest" for part in path[1:]]
        else:
            continue
        found += [(node.lineno, name) for name in names if _private(name)]
    return found


def relative_private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore-prefixed name in a relative import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = (node.module or "").split(".") + [a.name for a in node.names]
            found += [(node.lineno, name) for name in names if _private(name)]
    return found


def test_sources_found():
    assert {p.parent.name for p in SOURCES} == {"tests", "demos"}


def test_no_private_dimest_imports():
    hits = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in SOURCES
        for line, name in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def test_no_private_imports_between_dimest_modules():
    assert {"__init__", "cli", "fileio"} <= {path.stem for path in PACKAGE}
    hits = []
    for path in PACKAGE:
        source = path.read_text(encoding="utf-8")
        found = private_imports(source) + relative_private_imports(source)
        hits += [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in found]
    assert hits == []


def test_relative_detector_flags_only_private_names():
    source = (
        "from .boxcount import count_series, _unique_index_counts\n"
        "from . import __version__, _local\n"
        "from ._impl import thing\n"
        "from .. import _up\n"
        "from dimest.geometry import _INDEX_LIMIT\n"
        "def f():\n"
        "    from .geometry import _INDEX_LIMIT as limit\n"
    )
    assert relative_private_imports(source) == [
        (1, "_unique_index_counts"),
        (2, "_local"),
        (3, "_impl"),
        (4, "_up"),
        (7, "_INDEX_LIMIT"),
    ]


def test_detector_flags_only_private_dimest_names():
    source = (
        "import dimest._hidden\n"
        "import dimest.boxcount, numpy._core\n"
        "from dimest.boxcount import VOLUME_MAX_CELLS, _unique_index_counts\n"
        "from dimest import __version__, _secret as s\n"
        "from dimest._impl import thing\n"
        "from . import _local\n"
        "from numpy import _core\n"
        "def f():\n"
        "    from dimest.geometry import _INDEX_LIMIT\n"
    )
    assert private_imports(source) == [
        (1, "_hidden"),
        (3, "_unique_index_counts"),
        (4, "_secret"),
        (5, "_impl"),
        (9, "_INDEX_LIMIT"),
    ]


MODULES = ["dimest"] + [f"dimest.{m.name}" for m in pkgutil.iter_modules(dimest.__path__)]


def test_modules_found():
    assert {"dimest", "dimest.cli", "dimest.estimation", "dimest.geometry"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_without_repeats(name):
    # A deleted name left in __all__ would break ``from dimest import *``.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
