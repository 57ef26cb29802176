import functools
import itertools
import math
import operator

import numpy as np
import pytest

from mrcpp import partition
from mrcpp.graphs import PlannerConfig, build_covering_graph, build_spanning_graph
from mrcpp.partition import (LoopCostModel, PartitionError, PartitionSet,
                             _EvalBudget, _pairs_by_gap, _scan_improvement,
                             balanced_cut, build_robot_plan,
                             capacity_partition, max_weight, naive_mstc,
                             naive_partition, trips_required)
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene
from mrcpp.scenegen import generate_scene
from mrcpp.stc import CoverageLoop, minimum_spanning_tree, spiral_stc_loop
from mrcpp.terrain import build_traversability, steepness_filter

from conftest import (flat_scene, loop_cells, loop_instance, plan_fields, reference_robot_plan,
                      scalar_scan_improvement, shortest_path, sorted_pair_order,
                      tiny_loop_instances)

UNWEIGHTED = PlannerConfig(alpha=1.0, beta=0.0)


def fake_loop(length: int, weight: float = 1.0) -> CoverageLoop:
    return CoverageLoop(np.arange(length), np.zeros(length, dtype=np.int64),
                        np.full(length, weight), weight * length)


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


def checked_plan(depot, loop, runs, capacity, g):
    """``build_robot_plan`` over loop ranges, held to the cell-by-cell walk."""
    plan = build_robot_plan(0, depot, loop, runs, capacity, g)
    cell_runs = [loop_cells(loop, *run) for run in runs]
    assert plan_fields(plan) == plan_fields(reference_robot_plan(0, depot, cell_runs,
                                                                 capacity, g))
    return plan


def test_segment_cost_degenerate_depot_only(small_planner):
    g, loop = small_planner.graph, small_planner.loop
    runs = [(loop.position((0, 0)), 1, 1)]
    assert checked_plan((0, 0), loop, runs, math.inf, g).weight == 0.0
    with pytest.raises(PartitionError, match="at least one serviced cell"):
        build_robot_plan(0, (0, 0), loop, [(0, 0, 1), (5, 0, -1)], math.inf, g)


def test_segment_cost_unbounded_is_approach_coverage_return(small_planner):
    g, loop = small_planner.graph, small_planner.loop
    segment = loop.nodes[3:8]
    depot = (0, 0)
    expected = shortest_path(g, depot, segment[0])[1]
    expected += sum(g.weight(a, b) for a, b in zip(segment, segment[1:]))
    expected += shortest_path(g, segment[-1], depot)[1]
    plan = checked_plan(depot, loop, [(3, 5, 1)], math.inf, g)
    assert plan.runs == [segment]
    assert plan.weight == pytest.approx(expected)


def test_segment_cost_seven_nodes_capacity_three(small_planner):
    g, loop = small_planner.graph, small_planner.loop
    segment = loop.nodes[2:9]
    depot = (0, 0)
    plan = checked_plan(depot, loop, [(2, 7, 1)], 3.0, g)
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
        got = checked_plan(depot, loop, [(4, size, 1)], cap, g).weight
        assert got == pytest.approx(simulate_segment(segment, depot, cap, g))


@pytest.mark.parametrize("capacity", [math.inf, 1.0, 2.0, 3.0, 5.0])
def test_loop_range_plans_equal_cell_walk(capacity):
    """Forward and backward runs, runs across the loop's closing hop, a
    refill break inside a backward tail and runs of no cells all give the
    plan the cell-by-cell walk gives, bit for bit."""
    planner = loop_instance(5, 4)
    g, loop, depot = planner.graph, planner.loop, planner.scene.depots[1]
    length = len(loop)
    cases = [
        [(7, 6, -1), (8, 5, 1)],   # a tail of 6 behind position 8, then 5 forward
        [(2, 6, -1), (3, 4, 1)],   # the tail wraps backward past position 0
        [(length - 3, 9, 1)],   # forward across the closing hop
        [(length - 1, 0, -1), (0, 7, 1)],   # an empty tail
        [(10, 5, -1), (11, 0, 1)],   # an empty forward run
        [(20, 1, -1), (21, 1, 1)],
        [(30, 4, 1), (12, 3, -1)],   # two runs apart, joined by a travel leg
    ]
    for runs in cases:
        plan = checked_plan(depot, loop, runs, capacity, g)
        assert len(plan.segment) == sum(count for _, count, _ in runs)
    # capacity 3 breaks the 6-cell tail of the first case after its third cell
    if capacity == 3.0:
        plan = build_robot_plan(0, depot, loop, cases[0], capacity, g)
        assert plan.refills[0].serviced_index == 2
        assert plan.refills[0].break_cell == loop.nodes[5]


@pytest.mark.parametrize("kind, seed, side", [("field", 3, 96), ("blocked", 1, 16)])
def test_totals_add_in_sequential_order(kind, seed, side):
    # ``sum`` of floats is compensated from Python 3.12 on: every total must
    # be the left-to-right sum on every supported Python
    add = functools.partial(functools.reduce, operator.add)
    planner = ScenePlanner(generate_scene(kind, seed=seed, width=side, height=side))
    loop, tree = planner.loop, planner.tree
    assert loop.total_weight == add(loop.edge_weights.tolist())
    kruskal = sorted(tree.edges.items(), key=lambda kv: (kv[1], kv[0][0][::-1], kv[0][1][::-1]))
    assert tree.total_weight == add(w for _, w in kruskal)
    for algorithm in ("naive", "balanced", "mstc-nb", "mstc-bo"):
        outcome = planner.plan(algorithm, 4, 25.0).outcome
        assert outcome.total_weight == add(p.weight for p in outcome.plans)


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
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(1))
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
        outcome = capacity_partition(planner.graph, planner.loop, planner.depots(k))
        model = LoopCostModel(planner.loop, planner.graph, planner.scene.depots[:k])
        best = min(max(model.placement_costs(list(combo))[0])
                   for combo in itertools.combinations(range(len(planner.loop)), k))
        assert max(outcome.partition.weights) <= best * 1.10 + 1e-12


def test_balanced_dominates_naive():
    for seed in (1, 2, 3, 4, 5):
        planner = loop_instance(seed, 4)
        balanced = capacity_partition(planner.graph, planner.loop, planner.depots(4))
        naive = naive_mstc(planner.graph, planner.loop, planner.depots(4))
        assert balanced.max_weight <= naive.max_weight + 1e-9


def capture_optimize_calls(monkeypatch) -> list:
    """Record every ``optimize_partition`` call as (model, start, balanced partition)."""
    calls, original = [], partition.optimize_partition

    def spy(model, initial, *args, **kwargs):
        result = original(model, initial, *args, **kwargs)
        calls.append((model, initial, result[0]))
        return result

    monkeypatch.setattr(partition, "optimize_partition", spy)
    return calls


def virtual_stage(monkeypatch, planner, k, capacity):
    """The virtual stage's balanced sub-partition and the merged stage's
    start keys of one ``capacity_partition`` call, and its outcome."""
    calls = capture_optimize_calls(monkeypatch)
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(k), capacity)
    (virtual_model, _, virtual), (merged_model, merged_start, _) = calls
    assert virtual_model.depots is None and merged_model.depots is not None
    return virtual, merged_start.keys, outcome


def test_capacity_partition_24_nodes_two_robots_cap_4(monkeypatch):
    planner = uniform_planner(6, 4, [0, 12])
    assert len(planner.loop) == 24
    virtual, merged_keys, outcome = virtual_stage(monkeypatch, planner, 2, 4.0)
    assert len(virtual) == 6   # two naive segments of 12 cells, 3 loads each
    # cumulative counts [3, 3]: robots start at virtual keys 0 and 3
    assert merged_keys == [virtual.keys[0], virtual.keys[3]]
    for plan in outcome.plans:
        assert plan.trips == trips_required(len(plan.segment), 4.0)


def test_capacity_partition_merges_larger_runs_first(monkeypatch):
    # naive sizes 4, 5, 5, 5, 5 at c=4 make n = 1 + 4 * 2 = 9 sub-partitions
    # for 5 robots: runs of 2, 2, 2, 2, 1, the larger ones first
    planner = uniform_planner(6, 4, [0, 5, 10, 14, 19])
    virtual, merged_keys, _ = virtual_stage(monkeypatch, planner, 5, 4.0)
    assert len(virtual) == 9
    assert merged_keys == [virtual.keys[i] for i in (0, 2, 4, 6, 8)]


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


def test_capacity_sub_partitions_cover_loop_once(monkeypatch):
    planner = uniform_planner(6, 4, [0, 12])
    virtual, _, _ = virtual_stage(monkeypatch, planner, 2, 4.0)
    sizes = virtual.sizes()
    assert len(sizes) == 6
    assert sum(sizes) == len(planner.loop)
    assert max(sizes) <= 4


def test_max_weight():
    planner = loop_instance(4, 3)
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(3))
    assert max_weight(outcome.plans) == max(p.weight for p in outcome.plans)
    assert max_weight([outcome.plans[0]]) == outcome.plans[0].weight
    with pytest.raises(PartitionError):
        max_weight([])


def test_partition_conservation_and_disjoint_union():
    planner = loop_instance(12, 4)
    outcome = capacity_partition(planner.graph, planner.loop, planner.depots(4))
    nodes = [c for p in outcome.plans for c in p.segment]
    assert len(nodes) == len(planner.loop)
    assert set(nodes) == set(planner.loop.nodes)


def test_plans_deterministic_across_runs():
    a, b = (capacity_partition(p.graph, p.loop, p.depots(4))
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
            runs = [(start - 1, behind, -1), (start, size, 1)]
            plan = build_robot_plan(0, depots[0], loop, runs, capacity, g)
            check(start, size, 0, behind, plan.weight)


@pytest.mark.parametrize("capacity", [math.inf, 1.0, 3.0])
def test_segment_costs_equal_scalar_kernel_bit_for_bit(capacity):
    """The array kernel equals ``segment_cost_at`` exactly, in both of the
    broadcast forms MSTC-BO scans with: an array of sizes behind a fixed
    tail, and an array of tails before a fixed size."""
    planner = loop_instance(10, 3, width=6, height=6)   # a 20-node loop
    loop, k = planner.loop, 3
    model = LoopCostModel(loop, planner.graph, planner.depots(k), capacity)
    length = len(loop)
    for depot in range(k):
        for start in range(length):
            for behind in range(length):
                sizes = np.arange(1, length - behind + 1)
                got = model.segment_costs(start, sizes, depot, behind=behind).tolist()
                assert got == [model.segment_cost_at(start, size, depot, behind)
                               for size in range(1, length - behind + 1)]
            for size in range(1, length + 1):
                behinds = np.arange(length - size + 1)
                got = model.segment_costs(start, size, depot, behind=behinds).tolist()
                assert got == [model.segment_cost_at(start, size, depot, behind)
                               for behind in range(length - size + 1)]


def test_virtual_placement_costs_equal_prefix_differences():
    planner = loop_instance(13, 3)
    loop, length = planner.loop, len(planner.loop)
    model = LoopCostModel(loop)
    rng = np.random.default_rng(7)
    for k in (1, 2, 5, 17, length):
        for _ in range(5):
            keys = sorted(rng.choice(length, size=k, replace=False).tolist())
            keys = keys[k // 2:] + keys[:k // 2]   # segments may wrap past 0
            sizes = PartitionSet(keys=keys, loop_length=length).sizes()
            costs, binding = model.placement_costs(keys)
            assert binding is None
            assert costs == [model.coverage_cost(keys[i], sizes[i]) for i in range(k)]


def test_pair_order_matches_sorted_oracle_with_ties():
    """The refinement visits segment pairs by cost gap, ties by (i, j)."""
    blocked = ScenePlanner(generate_scene("blocked", seed=1))   # flat, walled
    model = LoopCostModel(blocked.loop)
    n = 40
    equal_costs, _ = model.placement_costs(naive_partition(blocked.loop, n).keys)
    assert len(set(equal_costs)) < n // 2          # many exact ties
    rng = np.random.default_rng(3)
    cases = [equal_costs, [1.0], [2.0, 2.0], [0.0, 1.0, 0.0, 1.0, 0.5],
             rng.integers(0, 4, size=30).astype(float).tolist(),
             (rng.integers(0, 8, size=40) * 0.1).tolist(),
             rng.random(12).tolist()]
    for weights in cases:
        k = len(weights)
        masks = [np.ones((k, k), dtype=bool), np.zeros((k, k), dtype=bool),
                 rng.random((k, k)) < 0.5, rng.random((k, k)) < 0.05]
        for mask in masks:
            assert list(_pairs_by_gap(weights, mask)) == [
                (i, j) for i, j in sorted_pair_order(weights) if mask[i, j]]


@pytest.mark.parametrize("capacity", [math.inf, 1.0, 3.0])
def test_placement_cost_rows_equal_scalar_placements_bit_for_bit(capacity):
    """Every row of the row kernel equals ``placement_costs`` of that row's
    keys exactly, costs and depot binding both: on a weighted scene, and
    on a flat walled scene where many depot distances tie."""
    rng = np.random.default_rng(11)
    for planner in (loop_instance(5, 1), ScenePlanner(generate_scene("blocked", seed=1))):
        loop, length = planner.loop, len(planner.loop)
        for k in (1, 2, 3, 5, 16):
            depots = [loop.nodes[p] for p in rng.choice(length, size=k, replace=False)]
            model = LoopCostModel(loop, planner.graph, depots, capacity)
            keys = np.array([rng.choice(length, size=k, replace=False) for _ in range(40)])
            keys[:20].sort(axis=1)               # half the rows in loop order
            costs, binding = model.placement_cost_rows(keys)
            for row, cost_row, binding_row in zip(keys.tolist(), costs.tolist(),
                                                  binding.tolist()):
                assert (cost_row, binding_row) == model.placement_costs(row)
        virtual = LoopCostModel(loop)
        keys = np.array([rng.choice(length, size=7, replace=False) for _ in range(20)])
        costs, binding = virtual.placement_cost_rows(keys)
        assert binding is None
        assert costs.tolist() == [virtual.placement_costs(row)[0] for row in keys.tolist()]


def test_depot_that_cannot_reach_the_loop_is_rejected():
    # a wall splits G in two; the loop runs on the left side only
    walled = flat_scene(6, 2, depots=[(0, 0)], blocked_cells=[(2, 0), (2, 1)])
    g = build_covering_graph(steepness_filter(walled), UNWEIGHTED, depots=[(0, 0)])
    loop = CoverageLoop(np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1]), np.ones(4), 4.0)
    LoopCostModel(loop, g, [(0, 0), (1, 1)])
    with pytest.raises(PartitionError, match="cannot reach"):
        LoopCostModel(loop, g, [(0, 0), (5, 1)])


def test_loop_cell_that_is_not_a_node_is_rejected():
    # (2, 2) is blocked, (-1, 1) and (1, 4) lie off the 4x4 grid: read
    # unchecked, the first takes another node's distances and -1 wraps round
    g = build_covering_graph(steepness_filter(flat_scene(4, 4, [(0, 0)], [(2, 2)])),
                             UNWEIGHTED)
    for cell in [(2, 2), (-1, 1), (1, 4)]:
        x, y = np.array([(1, 1), (2, 1), cell, (1, 2)]).T
        loop = CoverageLoop(x, y, np.ones(4), 4.0)
        with pytest.raises(PartitionError, match="not a node"):
            LoopCostModel(loop, g, [(0, 0)])


def scan_cases():
    """(model, partition, size_cap) cases for the refinement scan: random
    key sets, in loop order and not, under depot and virtual costs."""
    rng = np.random.default_rng(5)
    weighted = loop_instance(5, 4, width=8, height=8)
    loop, length = weighted.loop, len(weighted.loop)
    # hops of 0.1 give costs equal to within an ulp, below the 1e-15 margin
    fine = fake_loop(30, 0.1)
    models = [LoopCostModel(loop, weighted.graph, weighted.depots(2)),
              LoopCostModel(loop, weighted.graph, weighted.depots(3), 3.0),
              LoopCostModel(loop, weighted.graph, weighted.depots(4)),
              LoopCostModel(loop), LoopCostModel(fine)]
    for model in models:
        k = len(model.depots) if model.depots else 5
        for trial in range(4):
            keys = rng.choice(model.length, size=k, replace=False).tolist()
            if trial % 2:
                keys.sort()
            for size_cap in (None, 2, 5):
                weights, _ = model.placement_costs(keys)
                yield model, PartitionSet(keys, model.length, weights), size_cap


@pytest.mark.parametrize("limit", [1, 2, 7, 50, 10_000])
def test_batched_scan_matches_scalar_scan(limit):
    """The batched refinement scan returns the scalar scan's placement and
    spends the same budget, also when the budget runs out mid-matrix."""
    for model, pset, size_cap in scan_cases():
        scalar_budget, batched_budget = _EvalBudget(limit), _EvalBudget(limit)
        want = scalar_scan_improvement(model, pset, size_cap, scalar_budget)
        got = _scan_improvement(model, pset, size_cap, batched_budget)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.keys, got.weights) == (want.keys, want.weights)
        assert batched_budget.used == scalar_budget.used


def test_scan_skips_pairs_with_no_feasible_shift(monkeypatch):
    """With n * c = L every segment is at the size cap, so no pair has a
    shift: the scan builds no key chain and goes straight to rotations."""
    planner = loop_instance(5, 1)
    length = len(planner.loop)
    cap = next(c for c in range(3, length) if length % c == 0)
    model = LoopCostModel(planner.loop)
    keys = list(range(0, length, cap))
    weights, _ = model.placement_costs(keys)
    chains = []
    real = partition._chain_directions
    monkeypatch.setattr(partition, "_chain_directions",
                        lambda *args: chains.append(args) or real(*args))
    budget = _EvalBudget(10_000)
    got = _scan_improvement(model, PartitionSet(keys, length, weights), cap, budget)
    assert chains == []
    assert budget.used == length - 1               # the rotation sweep alone
    want = scalar_scan_improvement(model, PartitionSet(keys, length, weights), cap,
                                   _EvalBudget(10_000))
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.keys, got.weights) == (want.keys, want.weights)
