"""Source-level properties of the package."""

import ast
import os
import subprocess
import sys
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


def _named(tree):
    """Every identifier a module refers to, by name, attribute or import;
    binding a name does not refer to it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _is_claim_body(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "claim"
               for d in node.decorator_list)


def _definitions(tree):
    """(line, name) of every function, class and method of a module, and of
    every name a module-level assignment binds (a table, a constant)."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not _is_claim_body(node)):
            yield node.lineno, node.name
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def test_no_dead_definitions():
    # a function, class, method or module-level name of the package that
    # nothing in the package, the tests or the demos names is dead code; the
    # registry calls @claim bodies and Python uses dunders.  This file is
    # skipped: the names it uses (ast.parse, ...) say nothing about the package
    root = Path(sympgen.__file__).parents[2]
    tests = [path for path in (root / "tests").glob("*.py")
             if path.resolve() != Path(__file__).resolve()]
    named = set()
    for path in [*SOURCES, *tests, *(root / "demos").glob("*.py")]:
        named |= _named(ast.parse(path.read_text()))
    dead = [f"{path.name}:{line} {name}"
            for path in SOURCES
            for line, name in _definitions(ast.parse(path.read_text()))
            if name not in named
            and not (name.startswith("__") and name.endswith("__"))]
    assert SOURCES and dead == []


def test_demos_run():
    # test_no_dead_definitions counts what the demos name as used, so each
    # demo must run: every demos/*.py exits 0
    root = Path(sympgen.__file__).parents[2]
    demos = sorted((root / "demos").glob("*.py"))
    env = dict(os.environ, PYTHONPATH=str(Path(sympgen.__file__).parents[1]))
    failed = [path.name for path in demos
              if subprocess.run([sys.executable, str(path)], env=env, cwd=root,
                                capture_output=True).returncode != 0]
    assert demos and failed == []


def test_every_exported_name_resolves():
    missing = [name for name in sympgen.__all__ if not hasattr(sympgen, name)]
    assert sympgen.__all__ and missing == []


def _imports_of(package):
    """file:line of every import of the package under src/sympgen."""
    return [f"{path.name}:{node.lineno}"
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == package
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package]


def test_no_numpy_import():
    # the exact kernels run on Python ints; numpy stays optional
    assert SOURCES and _imports_of("numpy") == []


def test_no_sympy_import():
    # primality and factoring live in factorint; sympy is only the tests'
    # oracle, and loading it would triple the start-up time
    assert SOURCES and _imports_of("sympy") == []


def test_grouporder_imports_neither_factor_nor_random():
    # an element order needs only the distinct-degree pieces of chi, so
    # grouporder runs no equal-degree split and draws nothing at random
    tree = ast.parse((Path(sympgen.__file__).parent / "grouporder.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
    assert "poly" in names and not names & {"factor", "random"}


def _prime_field_forks(module):
    """The functions and methods of a module that read is_prime_field."""
    tree = ast.parse((Path(sympgen.__file__).parent / module).read_text())
    defs = [node for top in tree.body
            for node in (top.body if isinstance(top, ast.ClassDef) else [top])
            if isinstance(node, ast.FunctionDef)]
    return [node.name for node in defs
            if any(isinstance(n, ast.Attribute) and n.attr == "is_prime_field"
                   for n in ast.walk(node))]


def test_one_prime_field_fork_in_matrix():
    # matrix._combiner is the one place where matrix arithmetic tells prime
    # fields from extension fields
    assert _prime_field_forks("matrix.py") == ["_combiner"]


def test_no_prime_field_fork_in_poly():
    # every F_q runs the same packed digit-slot kernels: F_p is f = 1
    assert _prime_field_forks("poly.py") == []


def test_one_square_and_multiply():
    # gf._power is the one exponent loop: field elements, polynomials,
    # powmod residues and matrices all raise through it
    found = [f"{path.stem}.{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)
                     for n in ast.walk(node))]
    assert found == ["gf._power"]


def _references(tree, name):
    """The nodes of tree that name name: a name, an attribute or an import."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name.split(".")[-1] == name]


def test_one_reader_of_packed_slots():
    # poly._unpack is the one function that reduces packed slots mod p: the
    # byte translation tables are read nowhere else, so no second reader
    # with its own choice of path can grow beside it
    everywhere = [node for path in SOURCES
                  for node in _references(ast.parse(path.read_text()), "_byte_residues")]
    poly = ast.parse((Path(sympgen.__file__).parent / "poly.py").read_text())
    unpack, = [node for node in poly.body
               if isinstance(node, ast.FunctionDef) and node.name == "_unpack"]
    inside = _references(unpack, "_byte_residues")
    assert inside and len(everywhere) == len(inside)


def test_one_order_search():
    # factorint.multiplicative_order is the one order search: the product
    # tree of cofactor powers is named in factorint alone, where only the
    # search calls it, and element_order makes one call of the search
    named = sorted(path.stem for path in SOURCES
                   if _references(ast.parse(path.read_text()), "_cofactor_powers"))
    assert named == ["factorint"]
    factorint = ast.parse((Path(sympgen.__file__).parent / "factorint.py").read_text())
    callers = [node.name for node in factorint.body
               if isinstance(node, ast.FunctionDef) and _references(node, "_cofactor_powers")]
    assert callers == ["multiplicative_order"]
    grouporder = ast.parse((Path(sympgen.__file__).parent / "grouporder.py").read_text())
    calls = [node.name for node in grouporder.body
             if isinstance(node, ast.FunctionDef)
             for call in ast.walk(node) if isinstance(call, ast.Call)
             and _references(call.func, "multiplicative_order")]
    assert calls == ["element_order"]


def test_one_memo():
    # gf._Memo is the one dict that makes a missing value on lookup: the
    # half-digit texts of elem_string, element_order's rings and closure_bfs's
    # row images all use it
    found = sorted(f"{path.stem}.{node.name}"
                   for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef)
                   for item in node.body
                   if isinstance(item, ast.FunctionDef) and item.name == "__missing__")
    assert found == ["gf._Memo"]


def test_one_row_update():
    # the field's axpy is the row operation of the elimination, of the
    # Keller-Gehrig spin (char_poly reads chi off it) and of poly's long
    # division (divmod and gcd);
    # char_poly_berkowitz, the oracle that checks char_poly, stays on add and
    # mul and so shares no kernel with it
    found = sorted(f"{path.stem}.{node.name}"
                   for path in SOURCES if path.stem in ("matrix", "poly")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef) and _references(node, "axpy"))
    assert found == ["matrix._echelon", "matrix._spin", "poly._divide"]
