"""End-to-end properties of every strategy's plans on generated scenes."""
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcpp.graphs import PlannerConfig
from mrcpp.pipeline import (STRATEGIES, PlanningError, ScenePlanner, plan_document,
                            write_json_atomic)
from mrcpp.scene import SceneError, load_scene, save_scene
from mrcpp.scenegen import generate_scene

from conftest import load_bench, plan_fields, reference_robot_plan

# the benchmark's plan validator, which re-derives each plan from G with
# Dijkstra solves of its own
validate = load_bench("validate")


@st.composite
def requests(draw):
    """A generated scene, with k and a capacity.  The scene comes as
    generated and, when any cell is drawn, once more with the drawn cells
    out of its land-class mask and as NODATA elevation samples, written by
    ``save_scene`` and read back by ``load_scene``.  The cells of every
    depot's 2x2 block stay workable, so the loop can start at the first
    and pass the others."""
    kind = draw(st.sampled_from(["random", "blocked", "field"]))
    width = draw(st.sampled_from([5, 7, 9, 11]))
    height = draw(st.sampled_from([5, 7, 9, 11]))
    scene = generate_scene(kind, seed=draw(st.integers(0, 10_000)), width=width,
                           height=height, robots=draw(st.integers(1, 5)))
    kept = {(x // 2 * 2 + dx, y // 2 * 2 + dy) for x, y in scene.depots
            for dx in (0, 1) for dy in (0, 1)}
    cells = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)).filter(
        lambda cell: cell not in kept)
    unworkable = draw(st.lists(cells, max_size=width * height // 8))
    nodata = draw(st.lists(cells, max_size=width * height // 8))
    scenes = [(scene, False)]
    if unworkable or nodata:
        masked = replace(scene)
        if unworkable:
            masked.landclass = (np.ones((height, width), dtype=bool)
                                if scene.landclass is None else scene.landclass.copy())
            for x, y in unworkable:
                masked.landclass[y, x] = False
        if nodata:
            masked.elevation = (np.zeros((height, width)) if scene.elevation is None
                                else scene.elevation.copy())
            for x, y in nodata:
                masked.elevation[y, x] = -9999.0
        with tempfile.TemporaryDirectory() as out:
            masked = load_scene(save_scene(masked, Path(out) / "scene.json"))
        assert all(masked.blocked[y, x] for x, y in nodata)
        scenes.append((masked, True))
    k = draw(st.integers(1, len(scene.depots)))
    capacity = draw(st.sampled_from([1.0, math.inf]) | st.integers(2, 6).map(float))
    return scenes, k, capacity


def planners(scenes, k):
    """The planner of each scene.  A generated scene must plan with every
    depot on the loop; a drawn mask or NODATA cell can cut a depot, or
    its block, off the loop, and such a masked scene is left out."""
    for scene, masked in scenes:
        try:
            planner = ScenePlanner(scene)
        except (SceneError, PlanningError):
            if masked:
                continue
            raise
        on_loop = all(planner.loop.position(depot) >= 0 for depot in planner.depots(k))
        if masked and not on_loop:
            continue
        assert on_loop
        yield scene, planner


def _written(doc: dict) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        return write_json_atomic(Path(out) / "plan.json", doc).read_bytes()


@settings(max_examples=20, deadline=None)
@given(requests())
def test_every_strategy_plans_a_valid_cover(request):
    """Each loop cell is serviced exactly once, each robot's trips and
    refills follow the capacity, every plan equals the one a cell-by-cell
    walk of its runs builds, the reported maximum weight is the largest
    of their weights, the plan file holds the text of ``json.dumps``, and
    the benchmark's validator, walking the document with its own graph
    and shortest paths, finds no fault in it."""
    scenes, k, capacity = request
    for scene, planner in planners(scenes, k):
        loop, g = planner.loop, planner.graph
        oracle = validate.GraphOracle(g, loop.nodes)
        for algorithm in STRATEGIES:
            result = planner.plan(algorithm, k, capacity)
            plans = result.outcome.plans
            assert sorted(p.robot for p in plans) == list(range(k))
            serviced = [cell for p in plans for cell in p.segment]
            assert sorted(serviced) == sorted(loop.nodes), algorithm
            for p in plans:
                size = len(p.segment)
                trips = 1 if capacity == math.inf else math.ceil(size / capacity)
                assert p.trips == trips, algorithm
                assert len(p.refills) == trips - 1, algorithm
            rebuilt = [reference_robot_plan(p.robot, p.depot, p.runs, capacity, g)
                       for p in plans]
            assert [plan_fields(p) for p in plans] == [plan_fields(p) for p in rebuilt], \
                algorithm
            assert result.max_weight == max(p.weight for p in rebuilt), algorithm
            doc = plan_document(result, scene)
            assert validate.validate_plan(doc, oracle, scene.depots, k, capacity) == [], \
                algorithm
            reference = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                                   default=np.ndarray.tolist) + "\n"
            assert _written(doc) == reference.encode("ascii"), algorithm


@settings(max_examples=20, deadline=None)
@given(requests().filter(lambda request: request[2] != math.inf))
def test_refill_legs_are_shortest_walks_from_the_depot(request):
    """Every refill's inbound leg walks edges of G from the depot to its
    break cell at half the trip's cost, and its outbound leg is the same
    walk reversed."""
    scenes, k, capacity = request
    for _, planner in planners(scenes, k):
        g = planner.graph
        for algorithm in STRATEGIES:
            for p in planner.plan(algorithm, k, capacity).outcome.plans:
                for t in p.refills:
                    inbound = t.inbound.tolist()
                    assert inbound[0] == list(p.depot), algorithm
                    assert inbound[-1] == list(t.break_cell), algorithm
                    hops = g.hop_weights(t.inbound[:, 0], t.inbound[:, 1])
                    assert np.isfinite(hops).all(), algorithm
                    assert math.isclose(math.fsum(hops), t.cost / 2, rel_tol=1e-9), algorithm
                    assert t.outbound.tolist() == inbound[::-1], algorithm


def _scaled(fields: tuple, j: int) -> tuple:
    """``plan_fields`` with the plan weight and refill costs times 2**j."""
    runs, trips, weight, refills = fields
    return runs, trips, math.ldexp(weight, j), [
        (index, cell, math.ldexp(cost, j), outbound, inbound)
        for index, cell, cost, outbound, inbound in refills]


@pytest.mark.parametrize("kind, size, seed", [
    ("random", 10, 0), ("blocked", 16, 8), ("blocked", 16, 12),
    ("field", 32, 0), ("field", 32, 1), ("field", 32, 2)])
def test_plans_do_not_depend_on_the_unit_of_cost(kind, size, seed):
    """Scaling alpha and beta by 2**j scales every edge weight, distance
    and cost exactly, so every strategy keeps its keys, binding, runs,
    trips and legs, and every weight and refill cost is 2**j times the
    unscaled one, bit for bit."""
    scene = generate_scene(kind, seed, width=size, height=size)
    unit = PlannerConfig()
    planners = {j: ScenePlanner(scene, PlannerConfig(alpha=math.ldexp(unit.alpha, j),
                                                     beta=math.ldexp(unit.beta, j),
                                                     slope_threshold=unit.slope_threshold))
                for j in (-20, 0, 20)}
    k = min(4, len(scene.depots))
    for algorithm in STRATEGIES:
        for capacity in (math.inf, 3, 25):
            want = planners[0].plan(algorithm, k, capacity).outcome
            for j in (-20, 20):
                got = planners[j].plan(algorithm, k, capacity).outcome
                case = (algorithm, capacity, j)
                assert got.partition.keys == want.partition.keys, case
                assert got.binding == want.binding, case
                assert got.partition.weights == [math.ldexp(w, j)
                                                 for w in want.partition.weights], case
                assert [plan_fields(p) for p in got.plans] == \
                    [_scaled(plan_fields(p), j) for p in want.plans], case


@pytest.mark.parametrize("alpha, beta", [(1e307, 0.0), (1e308, 1e308)])
def test_a_loop_whose_weight_overflows_is_refused_at_set_up(alpha, beta):
    """A finite alpha and beta can still overflow the loop's total weight
    to inf, and the planner refuses it, naming both, before any request."""
    scene = generate_scene("random", 1, width=10, height=10)
    with pytest.raises(PlanningError, match=re.escape(f"alpha={alpha!r}, beta={beta!r}")):
        ScenePlanner(scene, PlannerConfig(alpha=alpha, beta=beta))


@pytest.mark.parametrize("alpha", [1e306, 3e306])
def test_a_plan_whose_weight_overflows_is_refused(alpha):
    """At these alphas the loop's weight is finite, but at capacity 1 the
    refill legs overflow the plans' total weight, and at 3e306 the cost
    of every ``balanced`` segment; every strategy's request is refused,
    naming alpha and beta, before a document could be written that JSON
    cannot hold."""
    planner = ScenePlanner(generate_scene("random", 1, width=10, height=10),
                           PlannerConfig(alpha=alpha))
    assert math.isfinite(planner.loop.total_weight)
    for algorithm in STRATEGIES:
        with pytest.raises(PlanningError, match=re.escape(f"alpha={alpha!r}, beta=")):
            planner.plan(algorithm, 4, 1)
