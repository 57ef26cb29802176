import json
import math
import re
import warnings

import pytest

from mrcpp.cli import build_parser, main
from mrcpp.graphs import GraphError, PlannerConfig
from mrcpp.pipeline import ALGORITHMS, PlanningError, ScenePlanner, plan_document, \
    write_json_atomic
from mrcpp.render import RenderError, render_plan_svg
from mrcpp.scene import load_scene, save_scene
from mrcpp.scenegen import generate_scene

from conftest import flat_scene, loop_instance, shortest_path


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
    cost += sum(g.weight(a, b) for a, b in zip(path, path[1:]))
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
    scene = generate_scene("random", seed=4)
    result = ScenePlanner(scene).plan("balanced", 2, 5)

    def lists(plans):
        return [(p.runs, [(t.outbound, t.inbound) for t in p.refills]) for p in plans]

    before = json.dumps(lists(result.outcome.plans))
    doc = plan_document(result, scene)
    assert any(plan["refills"] for plan in doc["plans"])
    for plan in doc["plans"]:
        for lst in [plan["path"], plan["runs"], *plan["runs"],
                    *(trip[leg] for trip in plan["refills"] for leg in ("outbound", "inbound"))]:
            lst.clear()
    assert json.dumps(lists(result.outcome.plans)) == before


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
])
def test_plan_rejects_bad_request(two_depot_planner, algorithm, robots, capacity, field):
    with pytest.raises(PlanningError, match=f"^{field} must be"):
        two_depot_planner.plan(algorithm, robots, capacity)


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
    assert (out / "plan_balanced_k2_cinf.json").exists()


def test_plan_document_records_the_plan_config():
    config = PlannerConfig(alpha=1.0, beta=0.0, slope_threshold=30.0)
    scene = generate_scene("random", seed=4)
    result = ScenePlanner(scene, config).plan("balanced", 2)
    doc = plan_document(result, scene)
    assert (doc["alpha"], doc["beta"], doc["slope_threshold"]) == (1.0, 0.0, 30.0)
    assert result.config == config
