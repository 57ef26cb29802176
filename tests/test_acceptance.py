"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s``); a
failing criterion fails its test.  Expected values come from independent
oracles, here or in ``conftest.py``: exhaustive enumeration, brute-force
scans, flood fill, and event-by-event cost simulation.
"""
import hashlib
import itertools
import math
import time
from collections import deque

import numpy as np
import pytest

from mrcpp.graphs import PlannerConfig, edge_weight
from mrcpp.partition import capacity_partition, naive_mstc
from mrcpp.baselines import mstc_nb
from mrcpp.pipeline import ScenePlanner, plan_document, write_json_atomic
from mrcpp.scene import Scene
from mrcpp.scenegen import generate_scene
from mrcpp.stc import minimum_spanning_tree, spiral_stc_loop
from mrcpp.terrain import remove_isolated, steepness_filter

from conftest import (exhaustive_mst_weight, free_cells, hop_weight, loop_instance,
                      random_spanning_graph, shortest_path, tiny_loop_instances)

PAPER_CFG = PlannerConfig(alpha=1 / 3, beta=2 / 3, slope_threshold=25.0)


def _ok(n: int, message: str):
    print(f"ACCEPTANCE {n}: PASS - {message}")


# --- criterion 1: coverage completeness ------------------------------------

def test_criterion_1_coverage_completeness():
    checked = 0
    seed = 0
    worst_time = 0.0
    while checked < 50:
        seed += 1
        kind = "blocked" if seed % 2 else "random"
        side = 8 + (seed * 7) % 25   # 8..32 covering cells
        side -= side % 2
        try:
            scene = generate_scene(kind, seed=seed, width=side, height=side,
                                   robots=2)
        except Exception:
            continue
        start = time.perf_counter()
        planner = ScenePlanner(scene)
        loop = planner.loop
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        assert elapsed < 1.0, f"scene {seed}: pipeline took {elapsed:.2f}s"
        assert len(loop) == 4 * len(planner.tree)
        assert len(set(loop.nodes)) == len(loop)
        covered = {(2 * bx + dx, 2 * by + dy) for bx, by in planner.tree.blocks
                   for dx in (0, 1) for dy in (0, 1)}
        assert set(loop.nodes) == covered
        for i, cell in enumerate(loop.nodes):
            nxt = loop.nodes[(i + 1) % len(loop)]
            assert max(abs(cell[0] - nxt[0]), abs(cell[1] - nxt[1])) == 1
        checked += 1
    _ok(1, f"50 scenes: closed Hamiltonian loops of 4x tree size "
           f"(worst build {worst_time * 1000:.0f} ms)")


# --- criterion 2: MST oracle ------------------------------------------------

def test_criterion_2_mst_matches_exhaustive_optimum():
    checked = seed = 0
    while checked < 100:
        h = random_spanning_graph(seed)
        seed += 1
        if len(h.blocks) < 2:
            continue
        tree = minimum_spanning_tree(h, h.blocks[0])
        assert tree.total_weight == pytest.approx(exhaustive_mst_weight(h), abs=1e-9)
        checked += 1
    _ok(2, "100 spanning graphs <= 12 nodes: MST weight equals exhaustive optimum")


# --- criterion 3: balanced dominance ----------------------------------------

def test_criterion_3_balanced_dominance():
    strict = 0
    for seed in range(100):
        k = (2, 4, 8)[seed % 3]
        planner = loop_instance(seed, k)
        depots = planner.depots(k)
        balanced = capacity_partition(planner.graph, planner.loop, depots).max_weight
        naive = naive_mstc(planner.graph, planner.loop, depots).max_weight
        nb = mstc_nb(planner.graph, planner.loop, planner.scene.depots).max_weight
        assert balanced <= naive + 1e-9, f"seed {seed}: balanced > naive"
        assert naive <= nb + 1e-9, f"seed {seed}: naive > mstc-nb"
        if balanced < naive - 1e-9:
            strict += 1
    assert strict >= 60, f"balanced strictly improved naive only {strict}/100 times"
    _ok(3, f"100 instances: balanced <= naive <= mstc-nb, strict improvement {strict}%")


# --- criterion 4: near-optimality at desk scale ------------------------------

def test_criterion_4_near_optimal_on_small_loops():
    from mrcpp.partition import LoopCostModel

    worst = 1.0
    for planner, k in tiny_loop_instances(200):
        outcome = capacity_partition(planner.graph, planner.loop, planner.depots(k))
        model = LoopCostModel(planner.loop, planner.graph, planner.scene.depots[:k])
        best = min(max(model.placement_costs(list(combo)))
                   for combo in itertools.combinations(range(len(planner.loop)), k))
        ratio = max(outcome.partition.weights) / best
        worst = max(worst, ratio)
        assert ratio <= 1.10, f"{ratio:.3f} above the 10% bound"
    _ok(4, f"200 loops <= 16 nodes, k in {{2,3}}: within 10% of exhaustive "
           f"(worst {100 * (worst - 1):.2f}%)")


# --- criterion 5: capacity law ------------------------------------------------

def _simulate_plan(plan, g):
    cost = shortest_path(g, plan.depot, plan.runs[0][0])[1]
    serviced = 0
    total = sum(len(r) for r in plan.runs)
    capacity = math.inf if plan.trips == 1 and not plan.refills else None
    prev = None
    refills = 0
    for run in plan.runs:
        if prev is not None:
            cost += shortest_path(g, prev, run[0])[1]
        for i, cell in enumerate(run):
            if i > 0:
                cost += hop_weight(g, run[i - 1], cell)
            serviced += 1
            hit = [t for t in plan.refills if t.serviced_index == serviced - 1]
            if hit:
                refills += 1
                cost += shortest_path(g, cell, plan.depot)[1]
                cost += shortest_path(g, plan.depot, cell)[1]
        prev = run[-1]
    cost += shortest_path(g, prev, plan.depot)[1]
    return cost, refills


def test_criterion_5_capacity_law():
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        k = (2, 3, 4)[seed % 3]
        c = (3.0, 5.0, 8.0, 12.0)[seed % 4]
        planner = loop_instance(seed, k, width=10, height=10)
        outcome = capacity_partition(planner.graph, planner.loop, planner.depots(k), c)
        for plan in outcome.plans:
            size = len(plan.segment)
            assert plan.trips == math.ceil(size / c)
            assert len(plan.refills) == plan.trips - 1
            prev = -1
            for b in [t.serviced_index for t in plan.refills] + [size - 1]:
                assert b - prev <= c
                prev = b
            sim_cost, sim_refills = _simulate_plan(plan, planner.graph)
            assert plan.weight == pytest.approx(sim_cost)
            assert sim_refills == len(plan.refills)
        # one load per robot once capacity covers an even share
        big_c = float(-(-len(planner.loop) // k))
        relaxed = capacity_partition(planner.graph, planner.loop, planner.depots(k),
                                     big_c)
        assert all(p.trips == 1 for p in relaxed.plans)
        checked += 1
    _ok(5, "50 instances: trips = ceil(size/c), refill runs <= c, "
           "single trip once c >= ceil(loop/k); costs match event simulation")


# --- criterion 6: unbounded-capacity reduction --------------------------------

def test_criterion_6_unbounded_capacity_reduction():
    for seed in range(50):
        k = (2, 3, 4)[seed % 3]
        planner = loop_instance(seed + 500, k, width=10, height=10)
        a = capacity_partition(planner.graph, planner.loop, planner.depots(k), math.inf)
        # a capacity of the whole loop never binds: no cap, no refill
        b = capacity_partition(planner.graph, planner.loop, planner.depots(k),
                               float(len(planner.loop)))
        assert a.partition.keys == b.partition.keys
        assert [p.segment for p in a.plans] == [p.segment for p in b.plans]
    gaps_shrink = 0
    for seed in range(3):
        scene = generate_scene("field", seed=seed, width=64, height=64, robots=8)
        planner = ScenePlanner(scene)
        gap = {}
        for c in (60.0, math.inf):
            rb = planner.plan("balanced", 4, c).max_weight
            rn = planner.plan("naive", 4, c).max_weight
            gap[c] = rn - rb
        assert gap[math.inf] <= gap[60.0], f"field seed {seed}: gap grew with capacity"
        gaps_shrink += 1
    _ok(6, f"50 instances: c=inf plans identical to those at c=loop length; "
           f"naive-balanced gap shrinks toward c=inf on {gaps_shrink} field fixtures")


# --- criterion 7: weight formula ----------------------------------------------

def test_criterion_7_weight_formula():
    assert edge_weight(1.0, 25.0, (0.0, 25.0), PAPER_CFG) == 1.0
    assert edge_weight(1.0, 0.0, (0.0, 25.0), PAPER_CFG) == 1 / 3
    for seed in range(10):
        rng = np.random.default_rng(seed)
        elev = rng.normal(0.0, 0.2, (12, 12)).cumsum(axis=1)
        scene = Scene(width=12, height=12, depots=[], elevation=elev)
        tmap = steepness_filter(scene, 25.0)
        lo, hi = tmap.slope_bounds
        for slope in tmap.edge_slopes.values():
            normalized = 0.0 if hi <= lo else (slope - lo) / (hi - lo)
            assert 0.0 <= normalized <= 1.0
    _ok(7, "unit edge at max slope costs exactly 1, flat unit edge exactly 1/3; "
           "normalized slopes stay in [0, 1]")


# --- criterion 8: traversability oracles ---------------------------------------

def _dem_scene(seed: int) -> Scene:
    rng = np.random.default_rng(seed)
    height = width = 20
    blocked = rng.random((height, width)) < 0.12
    elev = rng.normal(0.0, 0.3, (height, width)).cumsum(axis=1)
    return Scene(width=width, height=height, blocked=blocked, elevation=elev)


def test_criterion_8_traversability_oracles():
    for seed in range(50):
        scene = _dem_scene(seed)
        tmap = steepness_filter(scene, 25.0)
        # brute-force edge scan
        expected_edges = set()
        free = ~scene.blocked
        for y in range(scene.height):
            for x in range(scene.width):
                if not free[y, x]:
                    continue
                for dx, dy in ((1, 0), (0, 1)):
                    nx, ny = x + dx, y + dy
                    if nx < scene.width and ny < scene.height and free[ny, nx]:
                        rise = abs(scene.elevation[ny, nx] - scene.elevation[y, x])
                        if math.degrees(math.atan(rise)) <= 25.0:
                            expected_edges.add(frozenset([(x, y), (nx, ny)]))
        assert {frozenset(e) for e in tmap.edge_slopes} == expected_edges
        # flood-fill oracle for isolation pruning
        cells = free_cells(tmap)
        if not cells:
            continue
        rng = np.random.default_rng(seed + 1)
        depots = [cells[int(i)] for i in rng.integers(0, len(cells), 3)]
        pruned = remove_isolated(tmap, depots)
        adjacency = {}
        for (a, b) in tmap.edge_slopes:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        seen = set(depots)
        queue = deque(depots)
        while queue:
            cell = queue.popleft()
            for nbr in adjacency.get(cell, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    queue.append(nbr)
        assert set(free_cells(pruned)) == seen
    _ok(8, "50 DEM fixtures: threshold filter equals brute-force scan, "
           "pruning equals depot flood fill")


# --- criterion 9: scalability trend --------------------------------------------

def test_criterion_9_field_scalability_trend():
    start = time.perf_counter()
    scene = generate_scene("field", seed=3)
    planner = ScenePlanner(scene)
    max_weights = []
    for k in (4, 8, 12, 16):
        result = planner.plan("balanced", k, 400.0)
        max_weights.append(result.max_weight)
    elapsed = time.perf_counter() - start
    for a, b in zip(max_weights, max_weights[1:]):
        assert b <= a + 1e-9, f"max weight increased: {max_weights}"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _ok(9, f"256x256 field, c=400: max weight non-increasing over k=4,8,12,16 "
           f"({elapsed:.1f}s total)")


# --- criterion 10: determinism --------------------------------------------------

def test_criterion_10_byte_identical_plans(tmp_path):
    specs = [("blocked", 1, 4), ("random", 2, 4), ("random", 3, 8)]
    for kind, seed, k in specs:
        digests = set()
        for run in range(10):
            scene = generate_scene(kind, seed=seed)
            planner = ScenePlanner(scene, PAPER_CFG)
            result = planner.plan("balanced", k, 25.0)
            doc = plan_document(result, scene, scene_id=f"{kind}{seed}", seed=seed)
            path = write_json_atomic(tmp_path / f"{kind}{seed}_{run}.json", doc)
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        assert len(digests) == 1, f"{kind} seed {seed}: outputs differ across runs"
    _ok(10, "3 scenes x 10 repetitions: byte-identical plan JSON")
