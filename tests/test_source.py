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


def test_only_jsontext_writes_indented_json():
    # json.dumps(indent=...) never runs CPython's C encoder; jsontext.dumps
    # writes the same text quickly, so every writer goes through it
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "jsontext.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert not found, f"indented json.dump(s) outside jsontext: {found}"


def test_only_stc_reads_the_loop_as_tuples():
    # the planner reads the loop's coordinate arrays; ``CoverageLoop.nodes``
    # is a tuple view for the bench, the tests and the demos
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "stc.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "nodes"]
    assert not found, f"a .nodes attribute read outside stc: {found}"
