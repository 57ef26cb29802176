import functools
import json
import math
import operator
import re
import warnings

import numpy as np
import pytest

from mrcpp import jsontext
from mrcpp.cli import build_parser, main
from mrcpp.graphs import GraphError, PlannerConfig
from mrcpp.pipeline import ALGORITHMS, PlanningError, ScenePlanner, plan_document, \
    write_json_atomic
from mrcpp.render import RenderError, render_plan_svg
from mrcpp.scene import SceneError, load_scene, save_scene
from mrcpp.scenegen import generate_scene

from conftest import flat_scene, hop_weight, loop_instance, shortest_path


def test_gen_scene_kinds_are_loadable(tmp_path):
    for kind, size in (("blocked", 16), ("random", 10)):
        out = tmp_path / f"{kind}.json"
        assert main(["gen-scene", "--kind", kind, "--seed", "3", "--out", str(out)]) == 0
        scene = load_scene(out)
        assert scene.width == size
        ScenePlanner(scene)   # planner-ready by construction


def test_gen_scene_deterministic(tmp_path):
    import numpy as np

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen-scene", "--kind", "random", "--seed", "11", "--out", str(a)])
    main(["gen-scene", "--kind", "random", "--seed", "11", "--out", str(b)])
    sa, sb = load_scene(a), load_scene(b)
    assert sa.depots == sb.depots
    assert np.array_equal(sa.blocked, sb.blocked)
    assert np.array_equal(sa.elevation, sb.elevation)


def test_plan_flat_scene_single_robot(tmp_path, capsys):
    scene_path = save_scene(flat_scene(4, 4, depots=[(0, 0)]), tmp_path / "s.json")
    out = tmp_path / "out"
    code = main(["plan", "--scene", str(scene_path), "--algo", "balanced",
                 "--robots", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "plan_balanced_k1_cinf.json").read_text())
    assert doc["coverage"]["ratio"] == 1.0
    assert len(doc["plans"]) == 1
    assert len(doc["plans"][0]["path"]) == 16
    line = capsys.readouterr().out
    assert "max_weight" in line and "coverage=1.0000" in line


def test_plan_sweep_writes_one_file_per_cell(tmp_path):
    scene_path = tmp_path / "scene.json"
    main(["gen-scene", "--kind", "blocked", "--seed", "5", "--out", str(scene_path)])
    out = tmp_path / "plans"
    code = main(["plan", "--scene", str(scene_path), "--algo", "balanced",
                 "--algo", "naive", "--robots", "2", "--robots", "4",
                 "--capacity", "inf", "--capacity", "20", "--out", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.glob("plan_*.json"))
    assert len(files) == 8
    assert "plan_balanced_k2_c20.json" in files


def test_plan_metrics_match_recomputation(tmp_path):
    scene_path = tmp_path / "scene.json"
    main(["gen-scene", "--kind", "random", "--seed", "2", "--out", str(scene_path)])
    out = tmp_path / "plans"
    main(["plan", "--scene", str(scene_path), "--algo", "balanced",
          "--robots", "4", "--out", str(out)])
    doc = json.loads((out / "plan_balanced_k4_cinf.json").read_text())
    weights = [p["weight"] for p in doc["plans"]]
    assert doc["global"]["max_weight"] == pytest.approx(max(weights))
    assert doc["global"]["total_weight"] == pytest.approx(sum(weights))
    # recompute one robot's cost from its emitted path
    g = ScenePlanner(load_scene(scene_path)).graph
    plan = doc["plans"][0]
    depot = tuple(plan["depot"])
    path = [tuple(c) for c in plan["path"]]
    cost = shortest_path(g, depot, path[0])[1]
    cost += sum(hop_weight(g, a, b) for a, b in zip(path, path[1:]))
    cost += shortest_path(g, path[-1], depot)[1]
    assert plan["weight"] == pytest.approx(cost)


def test_plan_errors_on_missing_scene(tmp_path, capsys):
    code = main(["plan", "--scene", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_plan_errors_on_too_many_robots(tmp_path, capsys):
    scene_path = save_scene(flat_scene(4, 4, depots=[(0, 0)]), tmp_path / "s.json")
    code = main(["plan", "--scene", str(scene_path), "--robots", "3",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "depots" in capsys.readouterr().err


def test_plan_rejects_zero_robots(tmp_path, capsys):
    scene_path = save_scene(flat_scene(4, 4, depots=[(0, 0)]), tmp_path / "s.json")
    code = main(["plan", "--scene", str(scene_path), "--robots", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "robots must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--width", "0"), ("--width", "-4"),
                                           ("--height", "0"), ("--robots", "0")])
def test_gen_scene_rejects_bad_sizes(tmp_path, capsys, option, value):
    out = tmp_path / "s.json"
    code = main(["gen-scene", "--kind", "field", option, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{option[2:]} must be a positive integer, got {value}" in err
    assert "negative dimensions" not in err
    assert not out.exists()


def test_gen_scene_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(["gen-scene", "--kind", "random", "--seed", "-1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -1" in err
    assert "expected non-negative integer" not in err
    assert not out.exists()


@pytest.mark.parametrize("capacity", ["2.5", "0", "-3", "ten", ""])
def test_plan_rejects_bad_capacity(tmp_path, capsys, capacity):
    scene_path = save_scene(flat_scene(4, 4, depots=[(0, 0)]), tmp_path / "s.json")
    with pytest.raises(SystemExit) as exit_info:
        main(["plan", "--scene", str(scene_path), "--capacity", capacity,
              "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert f"capacity must be a positive integer or 'inf', got '{capacity}'" in err
    assert "_parse_capacity" not in err


def test_compare_reports_and_table(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    main(["gen-scene", "--kind", "random", "--seed", "8", "--out", str(scene_path)])
    out = tmp_path / "cmp"
    code = main(["compare", "--scene", str(scene_path),
                 "--algo", "mstc-nb", "--algo", "naive", "--algo", "balanced",
                 "--robots", "4", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "compare_k4_cinf.json").read_text())
    assert report["baseline"] == "mstc-nb"
    assert set(report["max_weights"]) == {"mstc-nb", "naive", "balanced"}
    assert report["reduction_ratios"]["balanced"] >= report["reduction_ratios"]["naive"] - 1e-12
    table = capsys.readouterr().out
    assert re.search(r"W\[balanced\]", table)


def test_compare_field_fixture_algorithm_ordering():
    # k=8 with workload capacity 400 on a field-style terrain: reduction
    # ratios vs mstc-nb order as balanced >= naive >= backtracking
    scene = generate_scene("field", seed=1, width=64, height=64, robots=8)
    planner = ScenePlanner(scene)
    report = planner.compare(["mstc-nb", "mstc-bo", "naive", "balanced"], 8, 400.0,
                             scene_id="field64", seed=1)
    ratios = report.reduction_ratios
    assert ratios["balanced"] >= ratios["naive"] - 1e-9
    assert ratios["naive"] >= ratios["mstc-bo"] - 1e-9


def test_compare_needs_two_algorithms(tmp_path, capsys):
    scene_path = save_scene(flat_scene(4, 4, depots=[(0, 0)]), tmp_path / "s.json")
    code = main(["compare", "--scene", str(scene_path), "--algo", "balanced",
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_render_plan_svg_geometry(tmp_path):
    scene_path = tmp_path / "scene.json"
    main(["gen-scene", "--kind", "blocked", "--seed", "9", "--out", str(scene_path)])
    out = tmp_path / "plans"
    main(["plan", "--scene", str(scene_path), "--algo", "balanced",
          "--robots", "2", "--out", str(out)])
    svg_path = tmp_path / "plan.svg"
    code = main(["render", "--plan", str(out / "plan_balanced_k2_cinf.json"),
                 "--scene", str(scene_path), "--out", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    scene = load_scene(scene_path)
    doc = json.loads((out / "plan_balanced_k2_cinf.json").read_text())
    cell_px = 24.0
    for plan in doc["plans"]:
        for (x, y) in plan["path"]:
            cx, cy = (x + 0.5) * cell_px, (scene.height - 1 - y + 0.5) * cell_px
            assert x * cell_px <= cx <= (x + 1) * cell_px
            assert (scene.height - 1 - y) * cell_px <= cy <= (scene.height - y) * cell_px
    # every robot path appears as a polyline
    assert svg.count("<polyline") >= len(doc["plans"])


def test_render_empty_plan_gives_grid_only_svg():
    scene = flat_scene(3, 3, depots=[(0, 0)])
    svg = render_plan_svg(scene, {"plans": []})
    assert "<polyline" not in svg
    assert "<line" in svg


def test_render_rejects_mismatched_scene():
    scene = flat_scene(3, 3, depots=[(0, 0)])
    with pytest.raises(RenderError):
        render_plan_svg(scene, {"scene": {"width": 9, "height": 9}, "plans": []})


@pytest.mark.parametrize("cell", [[1, "a"], [1]])
def test_render_rejects_a_malformed_cell_naming_plan_field_and_value(tmp_path, capsys, cell):
    """A cell that is not two integers exits 2 with a message that names the
    plan, the field and the value, not with the error of some arithmetic."""
    scene = generate_scene("random", seed=4)
    scene_path = save_scene(scene, tmp_path / "scene.json")
    doc = plan_document(ScenePlanner(scene).plan("balanced", 2), scene)
    doc["plans"][1]["runs"][0][2] = cell
    plan_path = write_json_atomic(tmp_path / "bad.json", doc)
    argv = ["render", "--plan", str(plan_path), "--scene", str(scene_path),
            "--out", str(tmp_path / "x.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: plan 1: runs[0] holds {cell!r}, "
                                       "not a cell [x, y] of two integers\n")
    assert not (tmp_path / "x.svg").exists()
    with pytest.raises(RenderError):
        main(argv + ["--debug"])


def test_render_names_a_plan_file_that_is_not_json(tmp_path, capsys):
    """A plan file that does not parse exits 2 naming the file, as a scene
    file that does not parse does, and writes no SVG."""
    scene_path = save_scene(generate_scene("random", seed=4), tmp_path / "scene.json")
    plan_path = tmp_path / "bad.json"
    plan_path.write_text("{not json")
    argv = ["render", "--plan", str(plan_path), "--scene", str(scene_path),
            "--out", str(tmp_path / "x.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {plan_path}: not valid JSON (Expecting property "
                                       "name enclosed in double quotes: line 1 column 2 "
                                       "(char 1))\n")
    assert not (tmp_path / "x.svg").exists()
    with pytest.raises(RenderError, match="not valid JSON"):
        main(argv + ["--debug"])


DELETE = object()


@pytest.mark.parametrize("path, value, message", [
    (("plans", 1, "depot"), DELETE, "plan 1: depot is missing"),
    (("plans", 0, "refills", 0, "outbound"), 5, "plan 0: refills[0].outbound holds 5, not a list"),
    (("plans", 0, "runs", 0), 7, "plan 0: runs[0] holds 7, not a list"),
    (("scene",), "x", "scene holds 'x', not an object"),
    (("plans",), {}, "plans holds {}, not a list"),
    ((), [1, 2], "the plan document holds [1, 2], not an object"),
], ids=["no-depot", "outbound-int", "run-int", "scene-str", "plans-object", "list-document"])
def test_render_rejects_a_malformed_document_naming_the_field(tmp_path, capsys, path, value,
                                                              message):
    """A plan document with ``value`` at ``path`` (the field dropped for
    DELETE) exits 2 with a message that names the field, not with the error
    of some lookup, and writes no SVG."""
    scene = generate_scene("random", seed=4)
    scene_path = save_scene(scene, tmp_path / "scene.json")
    doc = json.loads(write_json_atomic(tmp_path / "plan.json", plan_document(
        ScenePlanner(scene).plan("balanced", 2, 5), scene)).read_text())
    if not path:
        doc = value
    elif value is DELETE:
        del functools.reduce(operator.getitem, path[:-1], doc)[path[-1]]
    else:
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    plan_path = write_json_atomic(tmp_path / "bad.json", doc)
    argv = ["render", "--plan", str(plan_path), "--scene", str(scene_path),
            "--out", str(tmp_path / "x.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.svg").exists()
    with pytest.raises(RenderError):
        main(argv + ["--debug"])


def test_plan_json_round_trips_through_render(tmp_path):
    scene = generate_scene("random", seed=4)
    planner = ScenePlanner(scene)
    result = planner.plan("balanced", 4)
    doc = plan_document(result, scene, scene_id="roundtrip", seed=4)
    path = write_json_atomic(tmp_path / "plan.json", doc)
    parsed = json.loads(path.read_text())
    svg = render_plan_svg(scene, parsed)
    assert "<svg" in svg


def test_plan_document_shares_no_list_with_the_plans():
    """The document's ``path`` and ``runs`` lists are its own; its refill
    legs are the plans' arrays, which no one can write into."""
    scene = generate_scene("random", seed=4)
    result = ScenePlanner(scene).plan("balanced", 2, 5)

    def lists(plans):
        return [(p.runs, [(t.outbound, t.inbound) for t in p.refills]) for p in plans]

    before = json.dumps(lists(result.outcome.plans), default=np.ndarray.tolist)
    doc = plan_document(result, scene)
    assert any(plan["refills"] for plan in doc["plans"])
    for plan in doc["plans"]:
        for lst in [plan["path"], plan["runs"], *plan["runs"]]:
            lst.clear()
        for trip in plan["refills"]:
            for leg in (trip["outbound"], trip["inbound"]):
                with pytest.raises(ValueError, match="read-only"):
                    leg[0] = leg[-1]
                with pytest.raises(ValueError):
                    leg.flags.writeable = True
    assert json.dumps(lists(result.outcome.plans), default=np.ndarray.tolist) == before


def test_identical_runspec_byte_identical_output(tmp_path):
    scene_path = tmp_path / "scene.json"
    main(["gen-scene", "--kind", "random", "--seed", "6", "--out", str(scene_path)])
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        main(["plan", "--scene", str(scene_path), "--algo", "balanced",
              "--robots", "4", "--capacity", "12", "--seed", "33",
              "--out", str(out)])
        outs.append((out / "plan_balanced_k4_c12.json").read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_rejects_uncovered_first_depot():
    # depot in a partially blocked block cannot anchor the loop, nor can a
    # depot in the odd trailing column, which no block covers
    for scene in (flat_scene(4, 4, depots=[(0, 0)], blocked_cells=[(1, 1)]),
                  flat_scene(5, 4, depots=[(4, 1)])):
        with pytest.raises(PlanningError, match="intact"):
            ScenePlanner(scene)


@pytest.fixture(scope="module")
def two_depot_planner():
    return loop_instance(21, 2)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("robots, capacity, field", [
    (0, math.inf, "robots"), (-1, math.inf, "robots"), (1.5, math.inf, "robots"),
    (2, 0, "capacity"), (2, 0.5, "capacity"), (2, -3, "capacity"),
    (2, math.nan, "capacity"), (2, 2.5, "capacity"), (2, -math.inf, "capacity"),
    # bools and numpy numbers that are not positive integers
    (True, math.inf, "robots"), (np.True_, math.inf, "robots"),
    (np.int64(0), math.inf, "robots"), (np.float64(2.0), math.inf, "robots"),
    (2, True, "capacity"), (2, np.True_, "capacity"), (2, np.int64(0), "capacity"),
    (2, np.float32(2.5), "capacity"), (2, "25", "capacity"),
])
def test_plan_rejects_bad_request(two_depot_planner, algorithm, robots, capacity, field):
    with pytest.raises(PlanningError, match=f"^{field} must be"):
        two_depot_planner.plan(algorithm, robots, capacity)


@pytest.mark.parametrize("robots, capacity, stored", [
    (np.int64(2), np.int64(25), 25), (np.int32(2), np.float32(25.0), 25.0),
    (2, np.float64(math.inf), math.inf), (np.uint8(2), 25.0, 25.0),
])
def test_plan_accepts_numpy_integers_as_python_numbers(two_depot_planner, robots, capacity,
                                                       stored):
    planner = two_depot_planner
    result = planner.plan("balanced", robots, capacity)
    assert type(result.robots) is int and result.robots == 2
    assert type(result.capacity) is type(stored) and result.capacity == stored
    doc = jsontext.dumps(plan_document(result, planner.scene))
    assert doc == jsontext.dumps(plan_document(planner.plan("balanced", 2, stored),
                                               planner.scene))


def test_planner_config_defaults_match_cli():
    cfg = PlannerConfig()
    assert cfg.alpha == pytest.approx(1 / 3)
    assert cfg.beta == pytest.approx(2 / 3)
    assert cfg.slope_threshold == 25.0
    args = build_parser().parse_args(["plan", "--scene", "s.json"])
    assert (args.alpha, args.beta, args.slope_threshold) == \
        (cfg.alpha, cfg.beta, cfg.slope_threshold)


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("alpha", math.inf), ("alpha", -math.inf),
    ("beta", math.nan), ("beta", math.inf), ("beta", -math.inf),
])
def test_planner_config_rejects_non_finite_weights(field, value):
    with pytest.raises(GraphError, match=f"^{field} must be finite"):
        PlannerConfig(**{field: value})


@pytest.mark.parametrize("option, value, message", [
    ("--alpha", "nan", "alpha must be finite"),
    ("--beta", "inf", "beta must be finite"),
    ("--slope-threshold", "nan", "slope threshold must be positive"),
])
def test_cli_rejects_non_finite_config(tmp_path, capsys, option, value, message):
    scene_path = save_scene(generate_scene("random", seed=2), tmp_path / "s.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["plan", "--scene", str(scene_path), option, value,
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {message}" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_plans_with_infinite_slope_threshold(tmp_path):
    scene_path = save_scene(generate_scene("random", seed=2), tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["plan", "--scene", str(scene_path), "--slope-threshold", "inf",
                 "--robots", "2", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((out / "plan_balanced_k2_cinf.json").read_text(), parse_constant=reject)
    assert doc["slope_threshold"] == "inf"


@pytest.mark.parametrize("command", ["plan", "compare"])
def test_debug_flag_re_raises_instead_of_exiting_2(tmp_path, capsys, command):
    path = save_scene(flat_scene(4, 4, depots=[(0, 0)]), tmp_path / "s.json")
    doc = json.loads(path.read_text())
    doc["depots"] = [[0, 0], [0, 0]]
    path.write_text(json.dumps(doc))
    argv = [command, "--scene", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "error: depot cells must be distinct" in capsys.readouterr().err
    with pytest.raises(SceneError, match="depot cells must be distinct"):
        main(argv + ["--debug"])


def test_every_subcommand_takes_the_debug_flag():
    parser = build_parser()
    for argv in (["plan", "--scene", "s.json"], ["compare", "--scene", "s.json"],
                 ["render", "--plan", "p.json", "--scene", "s.json", "--out", "o.svg"],
                 ["gen-scene", "--kind", "random", "--out", "s.json"]):
        assert parser.parse_args(argv).debug is False
        assert parser.parse_args(argv + ["--debug"]).debug is True


def test_plan_document_records_the_plan_config():
    config = PlannerConfig(alpha=1.0, beta=0.0, slope_threshold=30.0)
    scene = generate_scene("random", seed=4)
    result = ScenePlanner(scene, config).plan("balanced", 2)
    doc = plan_document(result, scene)
    assert (doc["alpha"], doc["beta"], doc["slope_threshold"]) == (1.0, 0.0, 30.0)
    assert result.config == config
