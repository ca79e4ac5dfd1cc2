"""Source-level guards on the package itself.

Runtime invariants must raise typed errors: ``python -O`` strips
``assert`` statements, so a check written as one silently disappears.
The package computes exact answers, so no float may enter it: neither
a float literal nor a call to ``float(...)``.
"""

import ast
from pathlib import Path

import thetaforge

SRC = Path(thetaforge.__file__).parent


def _offending_nodes(is_bad):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if is_bad(node)]
    return found


def test_no_assert_statements_in_the_package():
    assert _offending_nodes(lambda node: isinstance(node, ast.Assert)) == []


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def test_no_floats_in_the_package():
    assert _offending_nodes(_is_float) == []


def test_float_guard_sees_literals_and_calls():
    tree = ast.parse("x = 0.5\ny = float(x)\nz = 2\n")
    assert [node.lineno for node in ast.walk(tree) if _is_float(node)] == [1, 2]
