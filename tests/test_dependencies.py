"""The runtime depends on the standard library alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import matchforce

SOURCES = sorted(Path(matchforce.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_every_source_file_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "graph.py", "ilp.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    assert [name for name in _absolute_imports(path) if name not in sys.stdlib_module_names] == []
