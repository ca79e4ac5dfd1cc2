"""Source-level guards on the package itself.

Runtime invariants must raise typed errors: ``python -O`` strips
``assert`` statements, so a check written as one silently disappears.
"""

import ast
from pathlib import Path

import thetaforge

SRC = Path(thetaforge.__file__).parent


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
