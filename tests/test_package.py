"""Source-level properties of the package."""

import ast
from pathlib import Path

import sympgen

SOURCES = sorted(Path(sympgen.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
