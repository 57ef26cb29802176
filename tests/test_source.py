import ast
import operator
import re
from pathlib import Path

import mrcpp
from mrcpp.graphs import CoveringGraph, SpanningGraph
from mrcpp.stc import SpanningTree

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


def test_no_module_touches_the_umask():
    # the umask is process-wide: setting it around a write changes the mode
    # of files other threads create meanwhile, so files get their mode from
    # ``os.open``'s mode argument and the kernel
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr == "umask")
             or (isinstance(node, ast.Name) and node.id == "umask")
             or (isinstance(node, ast.alias) and node.name == "umask")]
    assert not found, f"umask used in mrcpp: {found}"


def test_only_stc_reads_the_loop_as_tuples():
    # the planner reads the loop's coordinate arrays; ``CoverageLoop.nodes``
    # is a tuple view for the bench, the tests and the demos
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "stc.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "nodes"]
    assert not found, f"a .nodes attribute read outside stc: {found}"


def test_only_graphs_calls_dijkstra():
    # every shortest-path solve goes through ``CoveringGraph.solve``, which
    # caches it; graphs.py imports scipy's ``dijkstra`` and calls it there
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "graphs.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Name) and node.id == "dijkstra")
             or (isinstance(node, ast.Attribute) and node.attr == "dijkstra")
             or (isinstance(node, ast.alias) and node.name == "dijkstra")]
    assert not found, f"dijkstra used outside graphs: {found}"
    tree = ast.parse((SOURCES[0].parent / "graphs.py").read_text())
    callers = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dijkstra"]
    assert callers == ["solve"]


def test_only_partition_calls_placement_costs():
    # ``balanced`` prices single placements with ``placement_costs`` and whole
    # matrices of them with ``placement_cost_rows``, both exact; MSTC-BO
    # prices from ``prefix_segment_costs``' prefix sums
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "partition.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "placement_costs"]
    assert not found, f"placement_costs called outside partition: {found}"


def test_only_mstc_bo_calls_prefix_segment_costs():
    # MSTC-BO prices its robots once, then two per arc scan, and keeps the
    # costs it priced; no helper prices them a second time
    callers = [f"{path.name}:{func.name}" for path in SOURCES
               for func in ast.walk(ast.parse(path.read_text()))
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "prefix_segment_costs"]
    assert callers and set(callers) == {"baselines.py:mstc_bo"}


def test_scan_prices_only_with_the_row_kernel():
    # the refinement scan takes each row's costs from ``placement_cost_rows``,
    # which applies the depot floor itself, one call per chunk, and asks the
    # cost model nothing else; the separate floor and span helpers are gone
    tree = ast.parse((SOURCES[0].parent / "partition.py").read_text())
    top = {node.name: node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {node.name for node in top["LoopCostModel"].body
               if isinstance(node, ast.FunctionDef)}
    calls = {node.func.attr for node in ast.walk(top["_scan_improvement"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert calls & methods == {"placement_cost_rows"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"placement_floor_rows", "_segment_spans"}


def test_partition_keeps_no_float_error_bounds():
    # every ``balanced`` cost is exact, so no error bound, its unit roundoff
    # or a substitution of known weights is left to reconcile them
    tree = ast.parse((SOURCES[0].parent / "partition.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & {"UNIT_ROUNDOFF", "_refill_eps", "known"}


def test_partition_compares_with_inf_only_in_the_capacity_helper():
    # every strategy holds the capacity as whole cells per load, inf as the
    # loop length, so no search needs a branch of its own for inf
    tree = ast.parse((SOURCES[0].parent / "partition.py").read_text())
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_cells_per_load")
    inside = set(map(id, ast.walk(helper)))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and id(node) not in inside
             and any(re.fullmatch(r"-?(math|np|numpy)\.inf|float\('-?inf'\)", ast.unparse(op))
                     for op in [node.left, *node.comparators])]
    assert not found, f"partition.py compares with inf on lines {found}"


def test_one_relative_tie_rule_decides_every_cost_comparison():
    # an absolute margin such as 1e-12 rejects real gains at small costs and
    # is below one ulp at large ones, so plans would depend on the unit of
    # cost; ``REL_TIE``, defined once in partition.py, is the only tolerance
    found = []
    for name in ("partition.py", "baselines.py"):
        tree = ast.parse((SOURCES[0].parent / name).read_text())
        defined = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                   and [ast.unparse(t) for t in node.targets] == ["REL_TIE"]}
        assert defined if name == "partition.py" else not defined
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < abs(node.value) < 1e-6 and id(node) not in defined]
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "REL_IMPROVEMENT_EPS"]
    assert not found, f"cost margins other than REL_TIE: {found}"
    tree = ast.parse((SOURCES[0].parent / "baselines.py").read_text())
    split = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_first_better_split")
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(split) if isinstance(node, loops)]


def test_set_up_builds_no_sparse_graph_for_components_and_no_object_arrays():
    # connected regions are labelled on the rasters with ``scipy.ndimage``,
    # and slopes come from ``math.atan2`` over a list, not an object array
    banned = {"connected_components", "frompyfunc"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
             and {getattr(node, key, None) for key in ("id", "attr", "name")} & banned]
    assert not found, f"connected_components or np.frompyfunc in mrcpp: {found}"


def test_partition_compares_the_key_count_with_1_only_in_the_early_return():
    # one size rule, (next - key - 1) mod L + 1, makes one key's segment the
    # whole loop, so no pricing or search has a branch of its own for k = 1;
    # a comparison of the key count with a constant that tells 1 from 2 is one
    tree = ast.parse((SOURCES[0].parent / "partition.py").read_text())
    optimize = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "optimize_partition")
    early = next(node for node in optimize.body if isinstance(node, ast.If))
    assert ast.unparse(early.test) == "k == 1" and isinstance(early.body[0], ast.Return)
    ops = {ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
           ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge}

    def count(node):
        return re.fullmatch(r"k|len\(.*keys\)", ast.unparse(node)) is not None

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or node is early.test:
            continue
        operands = [node.left, *node.comparators]
        for left, op, right in zip(operands, node.ops, operands[1:]):
            test = ops.get(type(op))
            if test and count(left) and isinstance(right, ast.Constant):
                found += [node.lineno] * (test(1, right.value) != test(2, right.value))
            elif test and count(right) and isinstance(left, ast.Constant):
                found += [node.lineno] * (test(left.value, 1) != test(left.value, 2))
    assert not found, f"partition.py tells k = 1 apart on lines {found}"


def test_every_function_in_the_package_is_named_outside_its_own_body():
    # a lookup only the tests read belongs in tests/conftest.py: every function
    # and method of mrcpp, dunders aside, is named in mrcpp outside its own
    # body, or in bench/ or demos/, whose probes name what they wrap as
    # strings; the package __init__, which re-exports, does not count
    root = Path(__file__).resolve().parents[1]

    def names(tree, skip=frozenset()):
        found = set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        return found

    outside = set()
    for path in [*(root / "bench").glob("*.py"), *(root / "demos").glob("*.py")]:
        outside |= names(ast.parse(path.read_text()))
    modules = {path.name: ast.parse(path.read_text())
               for path in SOURCES if path.name != "__init__.py"}
    unnamed = []
    for name, tree in modules.items():
        others = set().union(*(names(t) for n, t in modules.items() if n != name))
        for func in ast.walk(tree):
            if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not re.fullmatch(r"__\w+__", func.name)
                    and func.name not in outside | others
                    | names(tree, frozenset(map(id, ast.walk(func))))):
                unnamed.append(f"{name}:{func.name}")
    assert not unnamed, f"functions no code outside tests/ names: {unnamed}"
    # names as common as these occur as other names too, so pin them apart
    for cls in (CoveringGraph, SpanningGraph, SpanningTree):
        assert not {"weight", "has_edge", "block_cells"} & set(dir(cls)), cls
