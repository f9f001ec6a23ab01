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


def test_no_numpy_import():
    # the exact kernels run on Python ints; numpy stays optional
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]
    assert SOURCES and found == []
