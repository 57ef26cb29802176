import itertools
import math
import re

import pytest

from mrcpp.baselines import (BaselineError, ComparisonReport,
                             format_comparison_table, mstc_bo, mstc_nb,
                             reduction_ratio)
from mrcpp.partition import capacity_partition, naive_mstc
from mrcpp.pipeline import ALGORITHMS, ScenePlanner
from mrcpp.graphs import PlannerConfig
from mrcpp.scenegen import generate_scene

from conftest import flat_scene, loop_cells, loop_instance, reference_robot_plan, scalar_mstc_bo

UNWEIGHTED = PlannerConfig(alpha=1.0, beta=0.0)


def symmetric_planner():
    """Flat 4x4 with depots equally spaced along the loop."""
    probe = ScenePlanner(flat_scene(4, 4, depots=[(0, 0)]), UNWEIGHTED)
    depots = [probe.loop.nodes[p] for p in (0, 4, 8, 12)]
    return ScenePlanner(flat_scene(4, 4, depots=depots), UNWEIGHTED)


def test_mstc_nb_keys_are_depot_positions():
    planner = loop_instance(21, 4)
    outcome = mstc_nb(planner.graph, planner.loop, planner.scene.depots)
    expected = sorted(planner.loop.position(d) for d in planner.scene.depots)
    assert outcome.partition.keys == expected


def test_mstc_nb_equally_spaced_depots_equal_sizes():
    planner = symmetric_planner()
    outcome = mstc_nb(planner.graph, planner.loop, planner.scene.depots)
    assert outcome.partition.sizes() == [4, 4, 4, 4]


def test_mstc_nb_clustered_depots_lopsided():
    planner = loop_instance(22, 4)   # depots on 4 consecutive loop cells
    outcome = mstc_nb(planner.graph, planner.loop, planner.scene.depots)
    sizes = sorted(outcome.partition.sizes())
    assert sizes[:3] == [1, 1, 1]
    assert sizes[3] == len(planner.loop) - 3


def test_mstc_nb_rejects_off_loop_depot():
    planner = loop_instance(23, 2)
    with pytest.raises(BaselineError, match="loop"):
        mstc_nb(planner.graph, planner.loop, [planner.scene.depots[0], (99, 99)])


def test_depot_off_the_loop_is_named_by_the_depot_keyed_baselines():
    # (4, 0) is a free cell of G in the odd trailing column, which no block covers
    planner = ScenePlanner(flat_scene(5, 4, depots=[(0, 0), (4, 0)]))
    loop = planner.loop
    assert loop.position((4, 0)) == -1
    assert all(loop.nodes[loop.position(c)] == c for c in loop.nodes)
    for algorithm in ("mstc-nb", "mstc-bo"):
        with pytest.raises(BaselineError, match=re.escape("depot (4, 0) does not lie")):
            planner.plan(algorithm, 2)
    for algorithm in ("naive", "balanced"):
        plans = planner.plan(algorithm, 2).outcome.plans
        assert sorted(c for p in plans for c in p.segment) == sorted(loop.nodes)


def test_mstc_nb_coverage_conservation():
    planner = loop_instance(24, 4)
    outcome = mstc_nb(planner.graph, planner.loop, planner.scene.depots)
    serviced = [c for p in outcome.plans for c in p.segment]
    assert len(serviced) == len(planner.loop)
    assert set(serviced) == set(planner.loop.nodes)


def test_mstc_bo_symmetric_equals_nb():
    planner = symmetric_planner()
    nb = mstc_nb(planner.graph, planner.loop, planner.scene.depots)
    bo = mstc_bo(planner.graph, planner.loop, planner.scene.depots)
    assert bo.max_weight == pytest.approx(nb.max_weight)
    assert [p.segment for p in bo.plans] == [p.segment for p in nb.plans]


def test_mstc_bo_adjacent_depots_strictly_better():
    planner = loop_instance(25, 2)   # two depots on adjacent loop cells
    nb = mstc_nb(planner.graph, planner.loop, planner.scene.depots)
    bo = mstc_bo(planner.graph, planner.loop, planner.scene.depots)
    assert bo.max_weight < nb.max_weight


def exhaustive_bo(planner, capacity=math.inf):
    """Joint search over both arc splits for k=2 (full plan costs)."""
    loop, g = planner.loop, planner.graph
    depots = planner.scene.depots
    length = len(loop)
    entries = sorted((loop.position(d), r) for r, d in enumerate(depots))
    positions = [pos for pos, _ in entries]
    arcs = [(positions[1] - positions[0]) % length,
            (positions[0] - positions[1]) % length]
    best = math.inf
    for t0 in range(arcs[0]):
        for t1 in range(arcs[1]):
            splits = [t0, t1]
            worst = 0.0
            for j, (pos, robot) in enumerate(entries):
                behind = splits[(j - 1) % 2]
                fwd_size = arcs[j] - splits[j]
                runs = [loop_cells(loop, pos - 1, behind, -1),
                        loop_cells(loop, pos, fwd_size, 1)]
                plan = reference_robot_plan(robot, depots[robot], runs, capacity, g)
                worst = max(worst, plan.weight)
            best = min(best, worst)
    return best


def test_mstc_bo_matches_exhaustive_split_search_for_two_robots():
    for seed in (25, 26, 28):
        planner = loop_instance(seed, 2, width=6, height=6)
        bo = mstc_bo(planner.graph, planner.loop, planner.scene.depots)
        best = exhaustive_bo(planner)
        assert bo.max_weight <= best * 1.02 + 1e-9
        assert bo.max_weight >= best - 1e-9


def test_mstc_bo_never_worse_than_nb():
    for seed in range(30, 40):
        planner = loop_instance(seed, 4)
        nb = mstc_nb(planner.graph, planner.loop, planner.scene.depots)
        bo = mstc_bo(planner.graph, planner.loop, planner.scene.depots)
        assert bo.max_weight <= nb.max_weight + 1e-9


def test_mstc_bo_coverage_conservation_with_capacity():
    planner = loop_instance(41, 3)
    bo = mstc_bo(planner.graph, planner.loop, planner.scene.depots, capacity=6.0)
    serviced = [c for p in bo.plans for c in p.segment]
    assert set(serviced) == set(planner.loop.nodes)
    assert len(serviced) == len(planner.loop)
    for plan in bo.plans:
        assert plan.trips == math.ceil(len(plan.segment) / 6)
        assert len(plan.refills) == plan.trips - 1


@pytest.mark.parametrize("kind, seed, size", [("random", 4, 12), ("blocked", 3, 16),
                                             ("field", 1, 14)])
def test_mstc_bo_matches_scalar_split_scan(kind, seed, size):
    """The array split scan picks the splits the scalar scan picks, and the
    plans weigh exactly the same."""
    planner = ScenePlanner(generate_scene(kind, seed=seed, width=size, height=size,
                                          robots=4, depot_style="clustered"))
    g, loop = planner.graph, planner.loop
    moved = 0
    for k in (2, 3, 4):
        depots = planner.depots(k)
        for capacity in (math.inf, 1.0, 3.0):
            keys, splits, weights = scalar_mstc_bo(g, loop, depots, capacity)
            bo = mstc_bo(g, loop, depots, capacity)
            assert bo.partition.keys == keys
            # the tail a robot walks backward is the split of the arc behind it
            behind = [len(p.runs[0]) if len(p.runs) == 2 else 0
                      for p in (bo.plans[r] for r in bo.binding)]
            assert behind[1:] + behind[:1] == splits
            assert [p.weight for p in bo.plans] == weights
            moved += sum(splits)
    assert moved > 0


def test_reduction_ratio_basics():
    assert reduction_ratio(10.0, 10.0) == 0.0
    assert reduction_ratio(10.0, 5.0) == 0.5
    assert reduction_ratio(10.0, 12.0) == pytest.approx(-0.2)
    with pytest.raises(BaselineError):
        reduction_ratio(0.0, 1.0)


def test_balanced_ratio_at_least_naive_ratio():
    for seed in (1, 6, 9):
        planner = loop_instance(seed, 4)
        base = mstc_nb(planner.graph, planner.loop, planner.scene.depots).max_weight
        depots = planner.depots(4)
        naive = naive_mstc(planner.graph, planner.loop, depots).max_weight
        balanced = capacity_partition(planner.graph, planner.loop, depots).max_weight
        assert reduction_ratio(base, balanced) >= reduction_ratio(base, naive) - 1e-12


@pytest.fixture(scope="module")
def random_planners():
    return [ScenePlanner(generate_scene("random", seed)) for seed in range(6)]


@pytest.mark.parametrize("capacity", [math.inf, 5])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_partition_weights_are_in_segment_order(random_planners, algorithm, capacity):
    for planner in random_planners:
        outcome = planner.plan(algorithm, 4, capacity).outcome
        assert [p.robot for p in outcome.plans] == list(range(4))
        weights = [outcome.plans[robot].weight for robot in outcome.binding]
        assert outcome.partition.weights == pytest.approx(weights, rel=1e-12)


def test_comparison_report_and_table():
    report = ComparisonReport(robots=4, capacity=math.inf, scene_id="demo", seed=0,
                              baseline="mstc-nb",
                              max_weights={"mstc-nb": 10.0, "balanced": 6.0,
                                           "naive": 8.0})
    ratios = report.reduction_ratios
    assert ratios["balanced"] == pytest.approx(0.4)
    assert ratios["naive"] == pytest.approx(0.2)
    doc = report.to_json_dict()
    assert doc["capacity"] == "inf"
    table = format_comparison_table([report])
    assert "balanced" in table and "mstc-nb" in table
    assert len(table.splitlines()) == 2
