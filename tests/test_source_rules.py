"""Rules on the package source itself."""

import ast
from pathlib import Path

import cachecast

SOURCES = sorted(Path(cachecast.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


def test_no_assert_statements():
    # correctness checks must be real exceptions: ``python -O`` strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
