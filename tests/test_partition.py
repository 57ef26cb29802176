import itertools
import math

import pytest

from mrcpp.graphs import PlannerConfig, build_covering_graph, build_spanning_graph
from mrcpp.partition import (LoopCostModel, PartitionError, PartitionSet,
                             balanced_cut, balanced_mstc, build_robot_plan,
                             capacity_partition, max_weight, naive_mstc,
                             naive_partition, trips_required)
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene
from mrcpp.stc import CoverageLoop, minimum_spanning_tree, spiral_stc_loop
from mrcpp.terrain import build_traversability

from conftest import flat_scene, loop_instance, shortest_path, tiny_loop_instances

UNWEIGHTED = PlannerConfig(alpha=1.0, beta=0.0)


def fake_loop(length: int, weight: float = 1.0) -> CoverageLoop:
    nodes = [(i, 0) for i in range(length)]
    return CoverageLoop(nodes=nodes, edge_weights=[weight] * length,
                        total_weight=weight * length)


def uniform_planner(width, height, loop_positions):
    """Flat scene with depots at the given loop positions (symmetric layouts)."""
    probe = ScenePlanner(flat_scene(width, height, depots=[(0, 0)]), UNWEIGHTED)
    depots = [probe.loop.nodes[p] for p in loop_positions]
    scene = flat_scene(width, height, depots=depots)
    return ScenePlanner(scene, UNWEIGHTED)


def simulate_segment(segment, depot, capacity, g):
    """Independent event-by-event cost simulation using shortest_path only."""
    cost = shortest_path(g, depot, segment[0])[1]
    since_refill = 0
    for i, cell in enumerate(segment):
        if i > 0:
            cost += g.weight(segment[i - 1], cell)
        since_refill += 1
        if capacity != math.inf and since_refill == capacity and i < len(segment) - 1:
            cost += shortest_path(g, cell, depot)[1]
            cost += shortest_path(g, depot, cell)[1]
            since_refill = 0
    cost += shortest_path(g, segment[-1], depot)[1]
    return cost


def test_segment_cost_degenerate_depot_only(small_planner):
    g = small_planner.graph
    assert build_robot_plan(0, (0, 0), [[(0, 0)]], math.inf, g).weight == 0.0


def test_segment_cost_unbounded_is_approach_coverage_return(small_planner):
    g, loop = small_planner.graph, small_planner.loop
    segment = loop.nodes[3:8]
    depot = (0, 0)
    expected = shortest_path(g, depot, segment[0])[1]
    expected += sum(g.weight(a, b) for a, b in zip(segment, segment[1:]))
    expected += shortest_path(g, segment[-1], depot)[1]
    assert build_robot_plan(0, depot, [segment], math.inf, g).weight == pytest.approx(expected)


def test_segment_cost_seven_nodes_capacity_three(small_planner):
    g, loop = small_planner.graph, small_planner.loop
    segment = loop.nodes[2:9]
    depot = (0, 0)
    plan = build_robot_plan(0, depot, [segment], 3.0, g)
    assert plan.trips == 3
    assert len(plan.refills) == 2
    assert [t.serviced_index for t in plan.refills] == [2, 5]
    assert plan.weight == pytest.approx(simulate_segment(segment, depot, 3, g))


def test_segment_cost_matches_simulation_on_weighted_instances():
    planner = loop_instance(5, 4)
    g, loop = planner.graph, planner.loop
    depot = planner.scene.depots[1]
    for size, cap in ((9, 4.0), (12, math.inf), (5, 2.0)):
        segment = loop.nodes[4:4 + size]
        got = build_robot_plan(0, depot, [segment], cap, g).weight
        assert got == pytest.approx(simulate_segment(segment, depot, cap, g))


def test_naive_partition_even_split():
    pset = naive_partition(fake_loop(12), 4)
    assert pset.sizes() == [3, 3, 3, 3]
    assert pset.keys == [0, 3, 6, 9]


def test_naive_partition_remainder_spread():
    pset = naive_partition(fake_loop(10), 4)
    assert pset.keys == [0, 2, 5, 7]
    assert sorted(pset.sizes()) == [2, 2, 3, 3]


def test_naive_partition_rejects_bad_k():
    with pytest.raises(PartitionError):
        naive_partition(fake_loop(8), 9)
    with pytest.raises(PartitionError):
        naive_partition(fake_loop(8), 0)


def test_naive_equal_counts_unequal_weights_on_weighted_loop():
    planner = loop_instance(3, 4)
    outcome = naive_mstc(planner.graph, planner.loop, planner.depots(4))
    sizes = outcome.partition.sizes()
    assert max(sizes) - min(sizes) <= 1
    weights = outcome.partition.weights
    assert max(weights) - min(weights) > 1e-6


def test_balanced_cut_already_balanced_returns_input():
    loop = fake_loop(8)
    model = LoopCostModel(loop)
    pset = PartitionSet(keys=[0, 4], loop_length=8)
    pset.weights, _ = model.placement_costs(pset.keys)
    out = balanced_cut(pset, 0, 1, model)
    assert out.keys == [0, 4]


def test_balanced_cut_uniform_two_segments_matches_exhaustive():
    loop = fake_loop(8)
    model = LoopCostModel(loop)
    pset = PartitionSet(keys=[0, 2], loop_length=8)
    pset.weights, _ = model.placement_costs(pset.keys)
    out = balanced_cut(pset, 0, 1, model)   # segment 0 has 2 nodes, segment 1 has 6
    assert sorted(out.sizes()) == [4, 4]
    best = min(max(model.placement_costs([a, b])[0])
               for a in range(8) for b in range(8) if a != b)
    assert max(out.weights) == pytest.approx(best)


def test_balanced_cut_adjacent_pair_moves_shared_boundary_only():
    planner = loop_instance(9, 4)
    model = LoopCostModel(planner.loop)
    pset = naive_partition(planner.loop, 4)
    pset.weights, _ = model.placement_costs(pset.keys)
    out = balanced_cut(pset, 2, 1, model)   # min and max are adjacent
    assert out.keys[0] == pset.keys[0]
    assert out.keys[1] == pset.keys[1]
    assert out.keys[3] == pset.keys[3]


def test_balanced_cut_never_worse_and_conserves_nodes():
    planner = loop_instance(11, 4)
    model = LoopCostModel(planner.loop, planner.graph, planner.scene.depots[:4])
    pset = naive_partition(planner.loop, 4)
    pset.weights, _ = model.placement_costs(pset.keys)
    current = pset
    for _ in range(6):
        weights = current.weights
        mn, mx = weights.index(min(weights)), weights.index(max(weights))
        if mn == mx:
            break
        nxt = balanced_cut(current, mn, mx, model)
        assert max(nxt.weights) <= max(current.weights) + 1e-12
        assert sum(nxt.sizes()) == len(planner.loop)
        current = nxt


def test_balanced_mstc_single_robot():
    planner = loop_instance(2, 1)
    outcome = balanced_mstc(planner.graph, planner.loop, planner.depots(1))
    assert outcome.iterations == 0
    assert len(outcome.plans) == 1
    assert outcome.plans[0].segment == planner.loop.nodes


def test_balanced_mstc_symmetric_uniform_loop():
    from mrcpp.partition import optimize_partition

    loop = fake_loop(16)
    model = LoopCostModel(loop)
    final, iterations = optimize_partition(model, naive_partition(loop, 4), 64 * 4)
    assert iterations <= 1
    assert max(final.weights) == pytest.approx(min(final.weights))
    assert sorted(final.sizes()) == [4, 4, 4, 4]


def test_balanced_mstc_near_optimal_on_tiny_loops():
    for planner, k in tiny_loop_instances(20):
        outcome = balanced_mstc(planner.graph, planner.loop, planner.depots(k))
        model = LoopCostModel(planner.loop, planner.graph, planner.scene.depots[:k])
        best = min(max(model.placement_costs(list(combo))[0])
                   for combo in itertools.combinations(range(len(planner.loop)), k))
        assert max(outcome.partition.weights) <= best * 1.10 + 1e-12


def test_balanced_dominates_naive():
    for seed in (1, 2, 3, 4, 5):
        planner = loop_instance(seed, 4)
        balanced = balanced_mstc(planner.graph, planner.loop, planner.depots(4))
        naive = naive_mstc(planner.graph, planner.loop, planner.depots(4))
        assert balanced.max_weight <= naive.max_weight + 1e-9


def test_capacity_partition_unbounded_reduces_to_balanced():
    planner = loop_instance(6, 3)
    a = capacity_partition(planner.graph, planner.loop, planner.depots(3), math.inf)
    b = balanced_mstc(planner.graph, planner.loop, planner.depots(3))
    assert a.partition.keys == b.partition.keys
    assert [p.segment for p in a.plans] == [p.segment for p in b.plans]
    assert a.max_weight == pytest.approx(b.max_weight)


def test_capacity_partition_24_nodes_two_robots_cap_4():
    planner = uniform_planner(6, 4, [0, 12])
    assert len(planner.loop) == 24
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(2), 4.0)
    assert outcome.capacity_detail.n == 6
    assert [len(a) for a in outcome.capacity_detail.assignment] == [3, 3]
    for plan in outcome.plans:
        assert plan.trips == trips_required(len(plan.segment), 4.0)


def test_capacity_law_and_refill_runs():
    planner = loop_instance(8, 2)
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(2), 5.0)
    for plan in outcome.plans:
        assert plan.trips == math.ceil(len(plan.segment) / 5)
        assert len(plan.refills) == plan.trips - 1
        # no inter-refill run services more than capacity cells
        breaks = [t.serviced_index for t in plan.refills]
        previous = -1
        for b in breaks + [len(plan.segment) - 1]:
            assert b - previous <= 5
            previous = b


def test_capacity_at_least_even_share_means_single_trip():
    planner = loop_instance(10, 4)
    length = len(planner.loop)
    cap = float(-(-length // 4))
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(4), cap)
    assert all(p.trips == 1 for p in outcome.plans)
    assert all(len(p.segment) <= cap for p in outcome.plans)
    assert all(not p.refills for p in outcome.plans)


def test_capacity_sub_partitions_cover_loop_once():
    planner = uniform_planner(6, 4, [0, 12])
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(2), 4.0)
    detail = outcome.capacity_detail
    assert sum(detail.sub_sizes) == len(planner.loop)
    assigned = sorted(j for group in detail.assignment for j in group)
    assert assigned == list(range(detail.n))


def test_max_weight():
    planner = loop_instance(4, 3)
    outcome = balanced_mstc(planner.graph, planner.loop, planner.depots(3))
    assert max_weight(outcome.plans) == max(p.weight for p in outcome.plans)
    assert max_weight([outcome.plans[0]]) == outcome.plans[0].weight
    with pytest.raises(PartitionError):
        max_weight([])


def test_partition_conservation_and_disjoint_union():
    planner = loop_instance(12, 4)
    outcome = balanced_mstc(planner.graph, planner.loop, planner.depots(4))
    nodes = [c for p in outcome.plans for c in p.segment]
    assert len(nodes) == len(planner.loop)
    assert set(nodes) == set(planner.loop.nodes)


def test_plans_deterministic_across_runs():
    a, b = (balanced_mstc(p.graph, p.loop, p.depots(4))
            for p in (loop_instance(7, 4), loop_instance(7, 4)))
    assert a.partition.keys == b.partition.keys
    assert [p.segment for p in a.plans] == [p.segment for p in b.plans]
    assert [p.weight for p in a.plans] == [p.weight for p in b.plans]


@pytest.mark.parametrize("seed, k", [(13, 3), (5, 4), (41, 3)])
@pytest.mark.parametrize("capacity", [math.inf, 3.0])
def test_cost_kernel_matches_built_plans(seed, k, capacity):
    """``segment_cost_at``, the cost every strategy searches with, equals
    the weight of the plan built for the same cells."""
    planner = loop_instance(seed, k)
    g, loop, depots = planner.graph, planner.loop, planner.depots(k)
    model = LoopCostModel(loop, g, depots, capacity)

    def check(start, size, robot, behind, weight):
        assert abs(model.segment_cost_at(start, size, robot, behind) - weight) <= 1e-9

    for algo in ("naive", "balanced", "mstc-bo"):
        outcome = planner.plan(algo, k, capacity).outcome
        for key, robot in zip(outcome.partition.keys, outcome.binding):
            plan = outcome.plans[robot]
            assert plan.runs[-1][0] == loop.nodes[key]
            behind = len(plan.runs[0]) if len(plan.runs) == 2 else 0
            check(key, len(plan.runs[-1]), robot, behind, plan.weight)
    # a backtracked tail behind robot 0's depot, with refill breaks both
    # inside the tail and in the forward run when the capacity is finite
    start = loop.position(depots[0])
    for behind in (1, 4, 7):
        for size in (1, 5):
            tail = [loop.nodes[(start - 1 - i) % len(loop)] for i in range(behind)]
            fwd = [loop.nodes[(start + i) % len(loop)] for i in range(size)]
            plan = build_robot_plan(0, depots[0], [tail, fwd], capacity, g)
            check(start, size, 0, behind, plan.weight)
