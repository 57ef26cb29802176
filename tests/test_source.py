import ast
from pathlib import Path

import mrcpp

SOURCES = sorted(Path(mrcpp.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so invariants must raise explicit errors
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"assert statements in mrcpp: {found}"
