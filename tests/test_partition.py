import functools
import itertools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrcpp import partition
from mrcpp.baselines import mstc_bo, mstc_nb
from mrcpp.graphs import PlannerConfig, build_covering_graph, build_spanning_graph
from mrcpp.partition import (LoopCostModel, PartitionError, PartitionSet,
                             _chain, _pairs_by_gap, _refill_offsets,
                             _scan_improvement, _shift_bounds, balanced_cut, build_robot_plan,
                             capacity_partition, max_weight, naive_mstc,
                             naive_partition, trips_required)
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene
from mrcpp.scenegen import generate_scene
from mrcpp.stc import CoverageLoop, minimum_spanning_tree, spiral_stc_loop
from mrcpp.terrain import build_traversability, steepness_filter

from conftest import (ExactCostModel, chain_directions, flat_scene, hop_weight, loop_cells,
                      loop_instance, memo_free_optimize_partition, plan_fields,
                      reference_placement_cost_rows, reference_placement_costs,
                      reference_robot_plan, scalar_scan_improvement, segment_costs,
                      shortest_path, sorted_pair_order, tiny_loop_instances, tuple_sort_binding)

UNWEIGHTED = PlannerConfig(alpha=1.0, beta=0.0)
STRATEGIES = {"naive": naive_mstc, "balanced": capacity_partition,
              "mstc-nb": mstc_nb, "mstc-bo": mstc_bo}


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
            cost += hop_weight(g, segment[i - 1], cell)
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
    expected += sum(hop_weight(g, a, b) for a, b in zip(segment, segment[1:]))
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


def test_refill_legs_after_every_cell_and_at_the_depot():
    """The refill legs from one walk of the depot's predecessor tree equal
    the cell-by-cell walk's: at c = 1, a break after every serviced cell,
    and a break on the depot itself, a leg of one cell at no cost."""
    planner = loop_instance(5, 4)
    g, loop, depot = planner.graph, planner.loop, planner.scene.depots[1]
    at = loop.position(depot)
    plan = checked_plan(depot, loop, [(at + 5, 6, -1), (at + 6, 9, 1)], 1.0, g)
    assert [t.serviced_index for t in plan.refills] == list(range(14))
    plan = checked_plan(depot, loop, [(at - 2, 7, 1)], 3.0, g)
    trip = plan.refills[0]
    assert (trip.break_cell, trip.inbound.tolist(), trip.outbound.tolist(), trip.cost) == \
        (depot, [list(depot)], [list(depot)], 0.0)
    assert max(len(t.inbound) for t in plan.refills) > 1


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


def test_partition_set_checks_its_keys():
    assert PartitionSet(keys=[], loop_length=8).keys == []
    assert PartitionSet(keys=[7, 0, 3], loop_length=8).sizes() == [1, 3, 4]
    assert PartitionSet(keys=[5], loop_length=8).sizes() == [8]
    # out of cyclic order, keys describe overlapping segments: [1, 5, 3]
    # would give sizes 4, 6 and 6 on 8 cells
    for keys, message in (([2, 5, 2], "must be distinct"), ([3, 3], "must be distinct"),
                          ([1, 5, 3], "cyclic loop order"), ([7, 1, 0, 3], "cyclic loop order"),
                          ([-1, 3], "outside the loop"), ([0, 8], "outside the loop")):
        with pytest.raises(PartitionError, match=message):
            PartitionSet(keys=keys, loop_length=8)


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
    pset.weights = model.placement_costs(pset.keys)
    out = balanced_cut(pset, 0, 1, model, pset.loop_length)
    assert out.keys == [0, 4]


def test_balanced_cut_uniform_two_segments_matches_exhaustive():
    loop = fake_loop(8)
    model = LoopCostModel(loop)
    pset = PartitionSet(keys=[0, 2], loop_length=8)
    pset.weights = model.placement_costs(pset.keys)
    out = balanced_cut(pset, 0, 1, model, pset.loop_length)   # segment 0 has 2 nodes, 1 has 6
    assert sorted(out.sizes()) == [4, 4]
    best = min(max(model.placement_costs([a, b]))
               for a in range(8) for b in range(8) if a != b)
    assert max(out.weights) == pytest.approx(best)


def test_balanced_cut_adjacent_pair_moves_shared_boundary_only():
    planner = loop_instance(9, 4)
    model = LoopCostModel(planner.loop)
    pset = naive_partition(planner.loop, 4)
    pset.weights = model.placement_costs(pset.keys)
    out = balanced_cut(pset, 2, 1, model, pset.loop_length)   # min and max are adjacent
    assert out.keys[0] == pset.keys[0]
    assert out.keys[1] == pset.keys[1]
    assert out.keys[3] == pset.keys[3]


def test_balanced_cut_never_worse_and_conserves_nodes():
    planner = loop_instance(11, 4)
    model = LoopCostModel(planner.loop, planner.graph, planner.scene.depots[:4])
    pset = naive_partition(planner.loop, 4)
    pset.weights = model.placement_costs(pset.keys)
    current = pset
    for _ in range(6):
        weights = current.weights
        mn, mx = weights.index(min(weights)), weights.index(max(weights))
        if mn == mx:
            break
        nxt = balanced_cut(current, mn, mx, model, current.loop_length)
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
    final, iterations = optimize_partition(model, naive_partition(loop, 4), len(loop))
    assert iterations <= 1
    assert max(final.weights) == pytest.approx(min(final.weights))
    assert sorted(final.sizes()) == [4, 4, 4, 4]


def test_balanced_mstc_near_optimal_on_tiny_loops():
    for planner, k in tiny_loop_instances(20):
        outcome = capacity_partition(planner.graph, planner.loop, planner.depots(k))
        model = LoopCostModel(planner.loop, planner.graph, planner.scene.depots[:k])
        best = min(max(model.placement_costs(list(combo)))
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
        assert plan.trips == trips_required(len(plan.segment), 4)


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


@pytest.mark.parametrize("capacity", [0, 0.5, -1, math.nan, 1.5, 2.5, 1e6 + 0.5])
@pytest.mark.parametrize("strategy", [*STRATEGIES, "build_robot_plan"])
def test_capacity_below_one_raises_partition_error(strategy, capacity):
    """Every strategy, and a plan built on its own, refuses a capacity
    below one cell, or nan, with ``PartitionError`` before any refill
    stride or division uses it, and, as ``ScenePlanner.plan`` does, a
    finite one that is not a whole number of cells, never truncating it:
    1.5 planned as 1 and 1e6 + 0.5, beyond the loop length, as inf."""
    planner = loop_instance(5, 4)
    g, loop, depots = planner.graph, planner.loop, planner.depots(4)
    with pytest.raises(PartitionError, match=f"capacity must be >= 1 and whole, or inf, "
                                             f"got {capacity!r}"):
        if strategy == "build_robot_plan":
            build_robot_plan(0, depots[0], loop, [(0, 5, 1)], capacity, g)
        else:
            STRATEGIES[strategy](g, loop, depots, capacity)


@pytest.mark.parametrize("kind, seed, side, k", [("random", 1, 10, 2), ("blocked", 2, 16, 4),
                                                 ("field", 3, 32, 4), ("field", 5, 32, 1)])
def test_capacity_of_the_loop_length_or_more_plans_as_inf(kind, seed, side, k):
    """A capacity of the loop length L or more is held as L, as inf is, and
    plans as inf does: every strategy gives the same keys, binding,
    weights, iterations and plans, and the cost model the same single and
    batched placement costs."""
    planner = ScenePlanner(generate_scene(kind, seed=seed, width=side, height=side))
    g, loop, depots = planner.graph, planner.loop, planner.depots(k)
    length = len(loop)
    capacities = [length, length + 1, 3.5 * length, 1e12]
    for strategy in STRATEGIES.values():
        want = strategy(g, loop, depots, math.inf)
        for capacity in capacities:
            got = strategy(g, loop, depots, capacity)
            assert (got.partition.keys, got.binding, got.partition.weights, got.iterations) == \
                (want.partition.keys, want.binding, want.partition.weights, want.iterations)
            assert [plan_fields(p) for p in got.plans] == [plan_fields(p) for p in want.plans]
    rng = np.random.default_rng(seed)
    keys = np.sort([rng.choice(length, size=k, replace=False) for _ in range(30)], axis=1)
    inf = LoopCostModel(loop, g, depots)
    want = inf.placement_cost_rows(keys, math.inf)
    for capacity in capacities:
        model = LoopCostModel(loop, g, depots, capacity)
        assert model.capacity == inf.capacity == length
        for row in keys.tolist():
            assert model.placement_costs(row) == inf.placement_costs(row)
        assert (model.placement_cost_rows(keys, math.inf) == want).all()


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
    """The segment costs the strategies search with equal the weight of the
    plan built for the same cells: ``prefix_segment_costs``, which MSTC-BO
    takes, and the exact cost, the oracle ``segment_costs``."""
    planner = loop_instance(seed, k)
    g, loop, depots = planner.graph, planner.loop, planner.depots(k)
    model = LoopCostModel(loop, g, depots, capacity)

    def check(start, size, robot, behind, weight):
        exact = float(segment_costs(model, start, size, robot, behind))
        approx = model.prefix_segment_costs(start, size, robot, behind)
        assert abs(exact - weight) <= 1e-9
        assert abs(float(approx) - weight) <= 1e-9

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
    """The array oracle equals the scalar left-to-right sum exactly where
    there is no tail, and both broadcast forms MSTC-BO scans with (an
    array of sizes behind a fixed tail, an array of tails before a fixed
    size) give every (tail, size) pair the same cost, bit for bit."""
    planner = loop_instance(10, 3, width=6, height=6)   # a 20-node loop
    loop, k = planner.loop, 3
    model = LoopCostModel(loop, planner.graph, planner.depots(k), capacity)
    length = len(loop)

    def scalar_cost(start, size, depot):
        d = model.depot_dist[depot].tolist()
        cost = d[start] + model.coverage_cost(start, size) + d[(start + size - 1) % length]
        for off in _refill_offsets(size, model.capacity):
            cost += 2.0 * d[(start + off) % length]
        return cost

    for depot in range(k):
        for start in range(length):
            by_tail, by_size = {}, {}
            for behind in range(length):
                sizes = range(1, length - behind + 1)
                got = segment_costs(model, start, np.array(sizes), depot, behind=behind)
                by_tail.update(zip(((behind, size) for size in sizes), got.tolist()))
            for size in range(1, length + 1):
                behinds = range(length - size + 1)
                got = segment_costs(model, start, size, depot, behind=np.array(behinds))
                by_size.update(zip(((behind, size) for behind in behinds), got.tolist()))
            assert by_tail == by_size
            assert [by_tail[0, size] for size in range(1, length + 1)] == \
                [scalar_cost(start, size, depot) for size in range(1, length + 1)]


@pytest.mark.parametrize("capacity", [math.inf, 1.0, 2.0, 3.0, 25.0, 1e12])
def test_segment_cost_bounds_hold_the_exact_costs(capacity):
    """``prefix_segment_costs``, MSTC-BO's approximation, in both of its
    broadcast forms: the exact cost bit for bit where a segment has no
    refill, as everywhere at c = inf, else within 1e-12 of it relatively,
    and somewhere its prefix differences really round.  A capacity beyond
    every segment builds no prefix sums."""
    planner = loop_instance(10, 3)
    loop, k = planner.loop, 3
    model = LoopCostModel(loop, planner.graph, planner.depots(k), capacity)
    length = len(loop)
    rounded = 0
    for depot in range(k):
        for start in range(0, length, 13):
            forms = [(np.arange(1, length - behind + 1), behind)
                     for behind in range(0, length, 4)]
            forms += [(size, np.arange(length - size + 1)) for size in range(1, length + 1, 4)]
            for size, behind in forms:
                exact = segment_costs(model, start, size, depot, behind=behind)
                approx = model.prefix_segment_costs(start, size, depot, behind=behind)
                none = (np.asarray(behind) + size - 1) // model.capacity < 1
                assert (approx[none] == exact[none]).all()
                assert (abs(approx - exact) <= 1e-12 * exact).all()
                rounded += int((approx != exact).sum())
    assert (rounded > 0) == (capacity < length)
    assert ("refill_prefix" in vars(model)) == (capacity < length)


def table_model(table: np.ndarray, capacity: float = math.inf) -> LoopCostModel:
    """A cost model over a unit-weight loop whose depot distances are ``table``."""
    model = LoopCostModel(fake_loop(table.shape[1]), capacity=capacity)
    model.depot_dist = table
    model._depot_dist = [memoryview(row) for row in table]
    return model


@pytest.fixture(scope="module")
def blocked_planners():
    """Flat blocked 16x16 scenes with 16 depots: unit and diagonal hops, so
    many depot distances tie exactly."""
    return [ScenePlanner(generate_scene("blocked", seed, width=16, height=16, robots=16))
            for seed in range(3)]


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_greedy_binding_equals_the_sorted_triples(k, blocked_planners):
    """The stable sort of the flat distances binds as the sorted (distance,
    robot, segment) triples do: on random tables, every other one drawn
    from three values, and on flat blocked scenes, in any key order."""
    rng = np.random.default_rng(k)
    models = [table_model(rng.integers(0, 3, (k, 64)).astype(float) if t % 2
                          else rng.random((k, 64))) for t in range(40)]
    models += [LoopCostModel(p.loop, p.graph, p.depots(k)) for p in blocked_planners]
    scene_ties = 0
    for model in models:
        for _ in range(100):
            starts = rng.choice(model.length, size=k, replace=False).tolist()
            assert model.greedy_binding(starts) == tuple_sort_binding(model, starts)
            if model.depots is not None:
                scene_ties += len(set(model.depot_dist[:, starts].ravel().tolist())) < k * k
    assert (scene_ties > 0) == (k > 1), scene_ties


@pytest.mark.parametrize("capacity", [1, 2, 25])
def test_refill_prefix_is_built_in_place(capacity):
    """``refill_terms`` equals the tiled, doubled distances and
    ``refill_prefix`` the cumulative sum of them zero-padded, and building
    either allocates little beyond the result."""
    rng = np.random.default_rng(capacity)
    model = table_model(rng.random((4, 20_000)) * 100.0, capacity)
    c, (k, length) = capacity, model.depot_dist.shape
    rows = -(-(2 * length) // c) + 1
    tiled = np.tile(2.0 * model.depot_dist, 2)
    terms = np.zeros((k, rows * c))
    terms[:, c:c + 2 * length] = tiled
    want = np.cumsum(terms.reshape(k, rows, c), axis=1).reshape(k, rows * c)
    for name, table in (("refill_terms", tiled), ("refill_prefix", want)):
        tracemalloc.start()
        try:
            got = getattr(model, name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, table)
        assert peak < 1.1 * got.nbytes


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
            assert model.placement_costs(keys) == [model.coverage_cost(keys[i], sizes[i])
                                                   for i in range(k)]


@st.composite
def pair_order_cases(draw):
    k = draw(st.integers(1, 60))
    # few distinct values: many exact ties, at the extremes too; 1e17 gives
    # distinct small weights equal float gaps, as 5e-324 does with 1.0
    values = draw(st.lists(st.floats(0.0, 10.0) | st.sampled_from([1e17, 5e-324]),
                           min_size=1, max_size=6))
    weights = draw(st.lists(st.sampled_from(values), min_size=k, max_size=k))
    sizes = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    # a cap of the loop length, sum(sizes), binds no shift
    return (weights, sizes, draw(st.sampled_from([sum(sizes), 1, 2, 3])),
            draw(st.integers(0, k * k)))


@settings(max_examples=300, deadline=None)
@given(pair_order_cases())
# distinct weights whose gaps round to one float: 1e17 - 1.0 == 1e17 - 0.0
# and 1.0 - 1e17 == 0.0 - 1e17, so (mn, mx) orders them, within a row and
# across rows
@example(([1e17, 0.0, 1.0], [3, 3, 3], 9, 6))
@example(([1.0, 1e17, 0.0, 1e17, 2.0, 0.0], [2, 1, 3, 1, 2, 2], 11, 30))
@example(([0.0, 1e17, 1.0, 1e17, 2.0, 0.0], [1, 2, 3, 2, 1, 2], 3, 30))
@example(([1.0, 5e-324, 0.0, 1.0], [2, 2, 2, 2], 8, 12))
def test_pair_order_matches_sorted_oracle_with_ties(case):
    """The refinement visits the first pairs with a nonzero shift within
    their bounds by cost gap, ties by (mn, mx), with each pair's bounds."""
    weights, sizes, size_cap, limit = case
    want = []
    for mn, mx in sorted_pair_order(weights):
        lo, hi = _shift_bounds(sizes[mn], sizes[mx], size_cap)
        if lo <= hi and (lo, hi) != (0, 0):
            want.append((mn, mx, lo, hi))
    assert list(itertools.islice(_pairs_by_gap(weights, sizes, size_cap), limit)) == \
        want[:limit]


def test_chains_match_the_key_lists():
    """Each chain's cyclic key range is the list of keys it moves, for
    arrays of pairs and for one pair alike."""
    for k in range(2, 9):
        mn, mx = np.array([(i, j) for i in range(k) for j in range(k) if i != j]).T
        for other, want_chain in ((False, 0), (True, 1)):
            got = _chain(k, mn, mx, other)
            for p, (i, j) in enumerate(zip(mn.tolist(), mx.tolist())):
                moving, want_sign = chain_directions(k, i, j)[want_chain]
                first, count, sign = (int(a[p]) for a in got)
                assert (first, count, sign) == _chain(k, i, j, other)
                assert [(first + q) % k for q in range(count)] == sorted(
                    moving, key=lambda key: (key - first) % k)
                assert sign == want_sign


@pytest.mark.parametrize("capacity", [math.inf, 1.0, 2.0, 3.0, 25.0, "L - 1"])
def test_placement_cost_rows_equal_scalar_placements_bit_for_bit(capacity):
    """``placement_cost_rows`` equals the full-matrix oracle bit for bit, and
    so does ``placement_costs`` of each row's keys, for k in
    {1, 2, 3, 5, 16} and c up to L - 1: on a weighted scene, and
    on a flat walled scene where many depot distances tie; on rows in loop
    order, rows that are not, and rows of segments of c - 1 to 2c + 1
    cells, laid from starts near the loop's end.  Below c = L - 1 rows hold
    segments of unlike refill counts, and at finite c breaks lie past the
    loop's end.  Without a refill no ``refill_terms`` are built.  Without
    depots the costs are the coverage, whatever the bar."""
    rng = np.random.default_rng(11)
    unlike = wrapped = 0
    for planner in (loop_instance(5, 1), ScenePlanner(generate_scene("blocked", seed=1))):
        loop, length = planner.loop, len(planner.loop)
        c = length - 1 if capacity == "L - 1" else capacity
        for k in (1, 2, 3, 5, 16):
            depots = [loop.nodes[p] for p in rng.choice(length, size=k, replace=False)]
            model = LoopCostModel(loop, planner.graph, depots, c)
            keys = np.array([rng.choice(length, size=k, replace=False) for _ in range(40)])
            keys[:20].sort(axis=1)               # half the rows in loop order
            if k > 1 and c < length:
                sizes = np.clip(model.capacity + rng.integers(-1, model.capacity + 2, (20, k)),
                                1, length // k)
                starts = length - 1 - rng.integers(0, model.capacity, (20, 1))
                keys = np.vstack([keys, (starts + np.cumsum(sizes, axis=1) - sizes) % length])
            costs = model.placement_cost_rows(keys, math.inf)
            assert costs.tolist() == reference_placement_cost_rows(model, keys).tolist()
            for row, cost_row in zip(keys.tolist(), costs.tolist()):
                assert cost_row == model.placement_costs(row)
            sizes = ((np.roll(keys, -1, axis=1) - keys) % length if k > 1
                     else np.full_like(keys, length))
            refills = (sizes - 1) // model.capacity
            assert ("refill_terms" in vars(model)) == bool(refills.any())
            unlike += int((refills.min(axis=1) < refills.max(axis=1)).sum())
            wrapped += int((keys + refills * model.capacity - 1 >= length)[refills > 0].sum())
        virtual = LoopCostModel(loop)
        keys = np.array([rng.choice(length, size=7, replace=False) for _ in range(20)])
        costs = reference_placement_cost_rows(virtual, keys)
        assert costs.tolist() == [virtual.placement_costs(row) for row in keys.tolist()]
        for bar in (math.inf, 0.0):
            assert virtual.placement_cost_rows(keys, bar).tolist() == costs.tolist()
    # at c = L - 1 only the whole loop, k = 1, refills
    assert (unlike > 0) == (capacity not in (math.inf, "L - 1"))
    assert (wrapped > 0) == (capacity != math.inf)


@pytest.mark.parametrize("capacity", [math.inf, 1.0, 3.0, 25.0])
def test_placement_cost_rows_price_exactly_every_row_below_the_bar(capacity):
    """With the bar at each row's exact maximum, then one ulp above it, a
    ``placement_cost_rows`` row has its maximum below the bar exactly when
    the oracle's row has, such a row equals the oracle's bit for bit, and
    no cost exceeds the oracle's, for k in {2, 4, 16}: on generated scenes,
    and on the flat 8x8 scene with symmetric depots, whose integer costs
    tie exactly, on rows in loop order and rows that are not.  The same
    holds with the bar at each row's least exact cost.  Some rows keep
    their floor."""
    rng = np.random.default_rng(int(min(capacity, 99)))
    planners = [ScenePlanner(generate_scene(kind, seed=seed, width=16, height=16, robots=16))
                for kind, seed in (("random", 2), ("blocked", 1), ("field", 3))]
    floored = 0
    for planner in [*planners, uniform_planner(8, 8, [0, 16, 32, 48])]:
        loop, length = planner.loop, len(planner.loop)
        for k in (2, 4, 16):
            if k > len(planner.scene.depots):
                continue
            model = LoopCostModel(loop, planner.graph, planner.depots(k), capacity)
            keys = np.array([rng.choice(length, size=k, replace=False) for _ in range(40)])
            keys[:20].sort(axis=1)
            want = reference_placement_cost_rows(model, keys)
            top = want.max(axis=1)
            # and at each row's least exact cost, below many floors at c = 1
            for bar in [*top.tolist(), *np.nextafter(top, math.inf).tolist(),
                        *want.min(axis=1).tolist()]:
                got = model.placement_cost_rows(keys, bar)
                below = got.max(axis=1) < bar
                assert below.tolist() == (top < bar).tolist()
                assert got[below].tolist() == want[below].tolist()
                assert (got <= want).all()
                floored += int((got != want).any(axis=1).sum())
    assert floored > 0


@pytest.mark.parametrize("capacity", [math.inf, 1.0, 2.0, 3.0, 25.0])
def test_placement_costs_equal_the_per_offset_oracle(capacity):
    """``placement_costs`` equals the per-offset oracle bit for bit, for k
    in {1, 2, 3, 5, 16}: on keys in loop order that
    wrap past the loop's end, and at finite c on segments of exactly c and
    c + 1 cells, whose last break falls on their last cell or just before
    it, laid from starts near the loop's end."""
    planner = loop_instance(5, 1, width=28, height=28)   # a 568-node loop
    loop, length = planner.loop, len(planner.loop)
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, 5, 16):
        depots = [loop.nodes[p] for p in rng.choice(length, size=k, replace=False)]
        model = LoopCostModel(loop, planner.graph, depots, capacity)
        rows = []
        for _ in range(20):
            keys = sorted(rng.choice(length, size=k, replace=False).tolist())
            turn = int(rng.integers(k))
            rows.append(keys[turn:] + keys[:turn])
        if capacity != math.inf:
            c = int(capacity)
            sizes = [c + j % 2 for j in range(k - 1)]
            for start in (0, length - c, length - 1):
                rows.append([(start + sum(sizes[:j])) % length for j in range(k)])
        for keys in rows:
            assert model.placement_costs(keys) == reference_placement_costs(model, keys)


def test_cumsum_adds_each_row_left_to_right():
    """``placement_costs`` adds a segment's refill terms with ``np.cumsum``
    along each row of a zero-padded array: that must be the sequential
    left-to-right sum, which pairwise summation of 1e16 + 1.0 + 1.0 + ...
    is not, and a trailing 0.0 must change no bit."""
    rng = np.random.default_rng(0)
    terms = np.array([[1e16] + [1.0] * 99,
                      [0.1] * 60 + [0.0] * 40,
                      (rng.random(100) * 10.0 ** rng.integers(-8, 17, 100)).tolist()])
    for row, got in zip(terms.tolist(), np.cumsum(terms, axis=1)[:, -1].tolist()):
        total = 0.0
        for term in row:
            total += term
        assert got == total
    assert terms[0].sum() != np.cumsum(terms, axis=1)[0, -1]   # the values tell them apart


def test_depot_that_cannot_reach_the_loop_is_rejected():
    # a wall splits G in two; the loop runs on the left side only
    walled = flat_scene(6, 2, depots=[(0, 0)], blocked_cells=[(2, 0), (2, 1)])
    g = build_covering_graph(steepness_filter(walled), UNWEIGHTED)
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


def test_scan_charges_nothing_when_no_cost_can_beat_its_bar():
    """No cost is below 0.0, so a placement whose heaviest segment costs
    0.0, L one-cell segments of coverage only, is not scanned at all."""
    planner = loop_instance(5, 1)
    loop, length = planner.loop, len(planner.loop)
    model = LoopCostModel(loop)
    pset = naive_partition(loop, length)
    pset.weights = model.placement_costs(pset.keys)
    assert max(pset.weights) == 0.0
    for budget in (1, 7, 10_000):
        assert _scan_improvement(model, pset, 1, budget) == (None, 0)
        assert scalar_scan_improvement(model, pset, 1, budget) == (None, 0)


def scan_cases():
    """(model, partition, size_cap) cases for the refinement scan: random
    key sets in loop order, half of them wrapping past the loop's end,
    under depot and virtual costs."""
    rng = np.random.default_rng(5)
    weighted = loop_instance(5, 4, width=8, height=8)
    loop, length = weighted.loop, len(weighted.loop)
    # hops of 0.1 give costs equal to within an ulp: ties for the first row's
    # REL_TIE bar, which a later row's plain < tells apart
    fine = fake_loop(30, 0.1)
    models = [LoopCostModel(loop, weighted.graph, weighted.depots(2)),
              LoopCostModel(loop, weighted.graph, weighted.depots(3), 3.0),
              LoopCostModel(loop, weighted.graph, weighted.depots(4)),
              LoopCostModel(loop), LoopCostModel(fine)]
    for model in models:
        k = len(model.depots) if model.depots else 5
        for trial in range(4):
            keys = sorted(rng.choice(model.length, size=k, replace=False).tolist())
            if trial % 2 == 0:
                keys = keys[trial // 2 + 1:] + keys[:trial // 2 + 1]
            for size_cap in (model.length, 2, 5):
                weights = model.placement_costs(keys)
                yield model, PartitionSet(keys, model.length, weights), size_cap
    # coverage only, n * c at or just above L: all segments but a few at the cap,
    # so pairs are few, of a few shifts each, and a call prices several
    for model in models[3:]:
        for size_cap in (3, 4, 7):
            n = -(-model.length // size_cap)
            for rot in range(4):
                keys = [(key + rot) % model.length for key in naive_partition(model.loop, n).keys]
                weights = model.placement_costs(keys)
                yield model, PartitionSet(keys, model.length, weights), size_cap
    for model, pset, size_cap, _, _ in floor_cases():
        yield model, pset, size_cap


def floor_cases():
    """Scan cases at the edges of the floor, as (model, partition, size_cap,
    budget, situation), on the weighted 8x8 loop (L = 32).  With three
    depots, from the naive keys one cell on, rows pass the floor on both
    sides of the end of the group that ends the scan, and one past it
    costs less than the best row before it.  With two depots, from the
    naive keys three cells on, the floor prunes the first call, both
    pairs' 120 rows, and a rotation improves; a budget of 130 runs out
    inside the 31 rotations, and the floor prunes all 10 it reaches."""
    weighted = loop_instance(5, 4, width=8, height=8)
    loop, length = weighted.loop, len(weighted.loop)
    for k, rot, budget, situation in ((3, 1, 10_000, "straddled"), (2, 3, 10_000, "pruned"),
                                      (2, 3, 130, "budget in pruned")):
        model = LoopCostModel(loop, weighted.graph, weighted.depots(k))
        keys = sorted((key + rot) % length for key in naive_partition(loop, k).keys)
        yield model, PartitionSet(keys, length, model.placement_costs(keys)), length, \
            budget, situation


@pytest.mark.parametrize("limit", [1, 2, 7, 13, 29, 50, 111, 130, 10_000])
def test_batched_scan_matches_scalar_scan(limit):
    """The batched refinement scan returns the scalar scan's placement and
    spends the same budget, also when the budget runs out mid-matrix or
    inside a call that prices several pairs."""
    for model, pset, size_cap in scan_cases():
        want, scalar_used = scalar_scan_improvement(model, pset, size_cap, limit)
        got, batched_used = _scan_improvement(model, pset, size_cap, limit)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.keys, got.weights) == (want.keys, want.weights)
        assert batched_used == scalar_used


def test_scan_floor_cases_reach_their_situations():
    """Each ``floor_cases`` case reaches its situation at its budget: a
    whole call pruned before a later one prices rows; rows that pass the
    floor on both sides of the end of the group that ends the scan; the
    budget running out inside a call whose rows the floor all prunes.
    ``test_batched_scan_matches_scalar_scan`` checks these cases' results
    and budgets against the scalar scan, at limits 130 and 10,000 among
    others.  A row passes the floor when its segments' ``(depot_floor[key]
    + coverage) + depot_floor[last]`` are all below the scan's bar."""
    price = LoopCostModel.placement_cost_rows
    for model, pset, size_cap, budget, situation in floor_cases():
        bar = max(pset.weights) * (1 - partition.REL_TIE)
        passed = []   # per call, whether each row's floor is below the bar

        def traced(self, keys, call_bar):
            assert call_bar == bar
            low, prefix = self.depot_floor, self.prefix
            last = keys + (np.roll(keys, -1, axis=1) - keys - 1) % self.length
            passed.append((low[keys] + (prefix[last] - prefix[keys]) + low[last]).max(axis=1)
                          < bar)
            return price(self, keys, call_bar)

        with mock.patch.object(LoopCostModel, "placement_cost_rows", traced):
            got, used = _scan_improvement(model, pset, size_cap, budget)
        # the rows of the last call that pass the floor, numbered from the scan's first
        last = np.flatnonzero(passed[-1]) + sum(map(len, passed[:-1]))
        reached = {"straddled": (last < used).any() and (last >= used).any(),
                   "pruned": not passed[0].any() and last.size > 0 and got is not None,
                   "budget in pruned": used == budget and not passed[-1].any()
                   and len(passed) > 1}
        assert reached[situation], situation


def test_scan_skips_pairs_with_no_feasible_shift():
    """With n * c = L every segment is at the size cap, so no pair has a
    shift: the scan goes straight to rotations."""
    planner = loop_instance(5, 1)
    length = len(planner.loop)
    cap = next(c for c in range(3, length) if length % c == 0)
    model = LoopCostModel(planner.loop)
    keys = list(range(0, length, cap))
    weights = model.placement_costs(keys)
    sizes = np.full(len(keys), cap)
    assert list(_pairs_by_gap(weights, sizes, cap)) == []
    got, used = _scan_improvement(model, PartitionSet(keys, length, weights), cap, 10_000)
    assert used == length - 1               # the rotation sweep alone
    want, _ = scalar_scan_improvement(model, PartitionSet(keys, length, weights), cap, 10_000)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.keys, got.weights) == (want.keys, want.weights)


def oracle_cases(capacity):
    """(model, oracle, keys) cases at a finite capacity: the cost model and
    the ``ExactCostModel`` over the same loop and depots, and key sets in
    loop order, two of every three wrapping past the loop's end.  A
    weighted scene, and a flat 8x8 one with symmetric depots, whose integer
    hop costs tie exactly."""
    rng = np.random.default_rng(int(capacity))
    weighted = loop_instance(5, 4, width=8, height=8)
    for planner, layouts in ((weighted, [weighted.depots(k) for k in (2, 3, 4)]),
                             (uniform_planner(8, 8, [0, 32]), None),
                             (uniform_planner(8, 8, [0, 16, 32, 48]), None)):
        loop, length = planner.loop, len(planner.loop)
        for depots in layouts or [planner.scene.depots]:
            model = LoopCostModel(loop, planner.graph, depots, capacity)
            oracle = ExactCostModel(loop, planner.graph, depots, capacity)
            for trial in range(3):
                keys = sorted(rng.choice(length, size=len(depots), replace=False).tolist())
                yield model, oracle, keys[trial:] + keys[:trial]
            yield model, oracle, naive_partition(loop, len(depots)).keys


@pytest.mark.parametrize("capacity", [1.0, 2.0, 3.0, 25.0])
def test_bounded_searches_match_the_exact_oracle(capacity):
    """The scan, ``balanced_cut`` and ``optimize_partition`` return the keys
    and weights, and spend the budget, that they do on the per-offset
    oracle's costs, on the flat scene's exact ties too."""
    for model, oracle, keys in oracle_cases(capacity):
        weights = model.placement_costs(keys)
        assert weights == oracle.placement_costs(keys)
        pset = PartitionSet(keys, model.length, weights)
        for size_cap in (model.length, 2 * int(capacity)):
            for limit in (7, 10_000):
                got, got_used = _scan_improvement(model, pset, size_cap, limit)
                want, want_used = _scan_improvement(oracle, pset, size_cap, limit)
                assert (got is None) == (want is None)
                if want is not None:
                    assert (got.keys, got.weights) == (want.keys, want.weights)
                assert got_used == want_used
        for mn, mx in itertools.permutations(range(len(keys)), 2):
            got, want = (balanced_cut(pset, mn, mx, m, model.length) for m in (model, oracle))
            assert (got.keys, got.weights) == (want.keys, want.weights)
        got, want = (partition.optimize_partition(m, PartitionSet(keys, model.length),
                                                  model.length) for m in (model, oracle))
        assert (got[0].keys, got[0].weights, got[1]) == (want[0].keys, want[0].weights,
                                                         want[1])


def memo_cases():
    """(model, start, size_cap) cases for ``optimize_partition``: tiny
    loops, and random 10x10 loops under depot costs, a finite capacity and
    coverage-only costs with a size cap."""
    for planner, k in tiny_loop_instances(6):
        yield (LoopCostModel(planner.loop, planner.graph, planner.depots(k)),
               naive_partition(planner.loop, k), len(planner.loop))
    for seed in (1, 4):
        planner = ScenePlanner(generate_scene("random", seed=seed, width=10, height=10))
        loop, n = planner.loop, -(-len(planner.loop) // 4)
        for capacity in (math.inf, 5.0):
            yield (LoopCostModel(loop, planner.graph, planner.depots(4), capacity),
                   naive_partition(loop, 4), len(loop))
        yield LoopCostModel(loop), naive_partition(loop, n), 5


def memoized_run(model, start, size_cap, limit=None):
    """``optimize_partition`` with its evaluation limit set to ``limit``, and
    that limit; the evaluations it charged are the limit less the budget
    its last ``_refine`` call left."""
    limits, left, default, refine = [], [], partition._eval_limit, partition._refine

    def eval_limit(k, length):
        limits.append(default(k, length) if limit is None else limit)
        return limits[-1]

    def counted_refine(*args):
        current, budget = refine(*args)
        left.append(budget)
        return current, budget

    with mock.patch.multiple(partition, _eval_limit=eval_limit, _refine=counted_refine):
        pset, iterations = partition.optimize_partition(model, start, size_cap)
    return (pset.keys, pset.weights, iterations, limits[0] - left[-1]), limits[0]


def test_memoized_refinement_matches_memo_free_reference():
    """Replaying scans changes no result and no charge: ``optimize_partition``
    returns the memo-free reference's keys, weights and iterations and spends
    as much of its budget, also when the budget runs out inside a scan that
    the memo replays when the budget has room."""
    repeats = 0
    for model, start, size_cap in memo_cases():
        got, limit = memoized_run(model, start, size_cap)
        scans = []
        pset, iterations, used = memo_free_optimize_partition(model, start, size_cap, limit,
                                                              scans)
        assert got == (pset.keys, pset.weights, iterations, used)
        seen, replayed = set(), []
        for keys, before, after in scans:
            if keys in seen:
                replayed.append((before, after))
            seen.add(keys)
        repeats += len(replayed)
        # budgets that end inside a replayable scan, at its start, or just cover it
        limits = {bound for before, after in replayed[:1] + replayed[len(replayed) // 2:][:1]
                  + replayed[-1:] for bound in (before + 1, (before + after) // 2, after)}
        for limit in sorted(limits):
            pset, iterations, used = memo_free_optimize_partition(model, start, size_cap, limit)
            got, _ = memoized_run(model, start, size_cap, limit)
            assert got == (pset.keys, pset.weights, iterations, used), limit
    assert repeats > 0


def test_memo_holds_no_scan_the_budget_cut_short():
    """A scan the budget cuts short is not stored, so a memo that outlives
    that budget replays nothing it should not."""
    for model, start, size_cap in list(memo_cases())[-6:]:
        pset = PartitionSet(list(start.keys), start.loop_length,
                            model.placement_costs(start.keys))
        memo = {}
        partition._refine(model, pset, size_cap, 3, memo)
        got, got_left = partition._refine(model, pset, size_cap, 10_000, memo)
        want, want_left = partition._refine(model, pset, size_cap, 10_000, {})
        assert (got.keys, got.weights, got_left) == (want.keys, want.weights, want_left)


@pytest.mark.parametrize("size_cap", [25, 26])
def test_scan_memory_is_not_quadratic_in_the_segments(size_cap):
    """One scan over 3,000 virtual segments of 25 equal-cost cells stays far
    below the 72 MB of a 3,000 x 3,000 float array: at a cap of 25 no pair
    has a shift, at 26 every pair has, all at the same gap."""
    loop = fake_loop(75_000)
    model = LoopCostModel(loop)
    pset = naive_partition(loop, 3_000)
    pset.weights = model.placement_costs(pset.keys)
    tracemalloc.start()
    try:
        _scan_improvement(model, pset, size_cap, 2_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
