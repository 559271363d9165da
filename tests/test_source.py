"""Properties of the package source itself."""

import ast
from pathlib import Path

import pytest

import conifold_lab

SOURCES = sorted(Path(conifold_lab.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    """python -O strips assert statements, so a check built on one passes
    silently there; the package raises or returns its violations instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"
