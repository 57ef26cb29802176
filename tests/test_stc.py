import functools
import itertools
import math
import operator

import numpy as np
import pytest

from mrcpp.graphs import PlannerConfig, SpanningGraph, build_covering_graph, \
    build_spanning_graph
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene
from mrcpp.scenegen import generate_scene
from mrcpp.stc import (CoverageLoop, SpanningTree, StcError,
                       minimum_spanning_tree, spiral_stc_loop)
from mrcpp.terrain import build_traversability

from conftest import (bfs_components, block_edge, canon, exhaustive_mst_weight, flat_scene,
                      hop_weight, kruskal_tree, neighbours, random_spanning_graph,
                      reference_stc_loop, spanning_graph, spanning_tree)

SQRT2 = math.sqrt(2.0)
UNWEIGHTED = PlannerConfig(alpha=1.0, beta=0.0)


def build_pipeline(scene, config=UNWEIGHTED):
    tmap = build_traversability(scene, config.slope_threshold)
    g = build_covering_graph(tmap, config)
    h = build_spanning_graph(tmap, config)
    return g, h


def dfs_tree(h: SpanningGraph, root) -> SpanningTree:
    """Arbitrary (weight-blind) depth-first spanning tree."""
    adjacency, weights = neighbours(h), h.edges
    seen = {root}
    edges = {}
    stack = [root]
    while stack:
        node = stack.pop()
        for nbr in adjacency[node]:
            if nbr not in seen:
                seen.add(nbr)
                edges[canon(node, nbr)] = weights[canon(node, nbr)]
                stack.append(nbr)
    return spanning_tree([b for b in h.blocks if b in seen], edges, h.intact.shape)


def test_mst_uniform_weights():
    h = random_spanning_graph(0)
    h = spanning_graph(h.blocks, {key: 2.0 for key in h.edges})
    tree = minimum_spanning_tree(h, h.blocks[0])
    assert tree.total_weight == pytest.approx(2.0 * (len(h.blocks) - 1))


def test_mst_excludes_heavy_edge():
    blocks = [(0, 0), (1, 0), (0, 1), (1, 1)]
    edges = {
        canon((0, 0), (1, 0)): 1.0,
        canon((0, 0), (0, 1)): 1.0,
        canon((1, 0), (1, 1)): 1.0,
        canon((0, 1), (1, 1)): 9.0,
    }
    h = spanning_graph(blocks, edges)
    tree = minimum_spanning_tree(h, (0, 0))
    assert not block_edge(tree, (0, 1), (1, 1))
    assert tree.total_weight == pytest.approx(3.0)


def test_mst_matches_exhaustive_enumeration():
    for seed in range(25):
        h = random_spanning_graph(seed)
        if len(h.blocks) < 2:
            continue
        tree = minimum_spanning_tree(h, h.blocks[0])
        assert tree.total_weight == pytest.approx(exhaustive_mst_weight(h))


def test_mst_rejects_disconnected_graph():
    h = spanning_graph([(0, 0), (2, 0)], {})
    with pytest.raises(StcError, match="disconnected"):
        minimum_spanning_tree(h, (0, 0))


def test_mst_rejects_root_outside_spanning_nodes():
    # (-1, 0) and (0, -1) would wrap to the last column / row under numpy
    # indexing, and (2, 0) lies past it; (1, 1) is inside the raster but not intact
    h = spanning_graph([(0, 0), (1, 0), (0, 1)], {((0, 0), (1, 0)): 1.0,
                                                  ((0, 0), (0, 1)): 1.0})
    assert minimum_spanning_tree(h, (0, 0)).total_weight == 2.0
    for root in ((-1, 0), (0, -1), (2, 0), (1, 1)):
        with pytest.raises(StcError, match="not a spanning node"):
            minimum_spanning_tree(h, root)


def test_mst_deterministic_under_ties():
    # all edges tie: Kruskal's row-major tie-break
    _, flat = build_pipeline(flat_scene(12, 10, depots=[(0, 0)]))
    graphs = [flat]
    # a 3x2 ring whose two heavy edges tie: Kruskal keeps ((0, 0), (0, 1)),
    # whose first end comes first row-major, though its second end does not
    ring = spanning_graph([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)], {
        ((0, 0), (1, 0)): 1.0, ((1, 0), (2, 0)): 2.0, ((0, 0), (0, 1)): 2.0,
        ((2, 0), (2, 1)): 1.0, ((0, 1), (1, 1)): 1.0, ((1, 1), (2, 1)): 1.0})
    assert ((0, 0), (0, 1)) in minimum_spanning_tree(ring, (0, 0)).edges
    graphs.append(ring)
    for seed in range(6):
        h = random_spanning_graph(seed)
        graphs.append(spanning_graph(h.blocks, {k: 1.0 for k in h.edges}))
    for h in graphs + [line_graph(1, 5), line_graph(5, 1)]:
        tree = minimum_spanning_tree(h, h.blocks[0])
        expected = kruskal_tree(h)
        assert tree.edges == minimum_spanning_tree(h, h.blocks[0]).edges == expected.edges
        assert tree.total_weight == expected.total_weight
        for raster in ("intact", "east", "north"):
            np.testing.assert_array_equal(getattr(tree, raster), getattr(expected, raster))


def line_graph(width: int, height: int) -> SpanningGraph:
    """H one block wide or one block high, its edges weighted 1, 2, ... in order."""
    blocks = [(x, y) for y in range(height) for x in range(width)]
    return spanning_graph(blocks, {(a, b): float(i + 1)
                                   for i, (a, b) in enumerate(zip(blocks, blocks[1:]))})


def test_has_edge_matches_edge_views():
    # every ordered pair of blocks at most 2 apart in x and y, a one-block
    # border included: a -1 wrapped round a raster must read as no edge
    planner = ScenePlanner(generate_scene("field", seed=4, width=16, height=16))
    connected = [random_spanning_graph(seed) for seed in range(6)]
    connected += [line_graph(1, 5), line_graph(5, 1), planner.spanning]
    graphs = [build_spanning_graph(planner.tmap, planner.config), *connected,
              *(minimum_spanning_tree(h, h.blocks[0]) for h in connected)]
    for graph in graphs:
        edges, (bh, bw) = graph.edges, graph.intact.shape
        blocks = list(itertools.product(range(-1, bw + 1), range(-1, bh + 1)))
        for a, b in itertools.product(blocks, blocks):
            if abs(a[0] - b[0]) <= 2 and abs(a[1] - b[1]) <= 2:
                assert block_edge(graph, a, b) == (canon(a, b) in edges), (a, b)


def test_loop_order_matches_cell_by_cell_reference():
    # exact node order and hop weights, for the MST and for a weight-blind
    # tree, on generated scenes (field scenes carry a land-class mask)
    for seed in range(1, 121):
        kind = ("random", "blocked", "field")[seed % 3]
        side = (8, 10, 13, 16, 20)[seed % 5]
        planner = ScenePlanner(generate_scene(kind, seed=seed, width=side,
                                              height=side + seed % 2))
        g, h, start = planner.graph, planner.spanning, planner.scene.depots[0]
        root = h.block_of(start)
        mst = minimum_spanning_tree(h, root)
        reference = kruskal_tree(h)
        assert mst.edges == reference.edges
        assert mst.total_weight == reference.total_weight
        blind = dfs_tree(h, root)
        for tree, oracle in ((mst, reference), (blind, blind)):
            loop = spiral_stc_loop(g, tree, start)
            nodes, weights = reference_stc_loop(g, oracle, start)
            assert loop.nodes == nodes
            assert loop.edge_weights.tolist() == weights
            assert loop.total_weight == functools.reduce(operator.add, weights)


def test_planner_spans_the_first_depots_component():
    # H masked to the first depot's component is that breadth-first group
    # with exactly H's edges among its blocks; about a quarter of these
    # scenes have blocks outside it
    partial = 0
    for seed in range(1, 121):
        kind = ("random", "blocked", "field")[seed % 3]
        side = (8, 10, 13, 16, 20)[seed % 5]
        planner = ScenePlanner(generate_scene(kind, seed=seed, width=side,
                                              height=side + seed % 2))
        h = build_spanning_graph(planner.tmap, planner.config)
        root = h.block_of(planner.scene.depots[0])
        group = next(group for group in bfs_components(h) if root in group)
        assert planner.spanning.blocks == group
        assert planner.spanning.edges == {e: w for e, w in h.edges.items() if e[0] in group}
        partial += len(group) < len(h)
    assert partial >= 20


def test_loop_single_block():
    g, h = build_pipeline(flat_scene(2, 2, depots=[(0, 0)]))
    tree = minimum_spanning_tree(h, (0, 0))
    loop = spiral_stc_loop(g, tree, (0, 0))
    assert len(loop) == 4
    assert set(loop.nodes) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert loop.total_weight == pytest.approx(4.0)


def test_loop_counter_clockwise_start_at_depot():
    g, h = build_pipeline(flat_scene(2, 2, depots=[(0, 0)]))
    tree = minimum_spanning_tree(h, (0, 0))
    loop = spiral_stc_loop(g, tree, (0, 0))
    assert loop.nodes[0] == (0, 0)
    area = sum(x * ny - nx * y
               for (x, y), (nx, ny) in zip(loop.nodes, loop.nodes[1:] + loop.nodes[:1]))
    assert area > 0


def test_loop_10x10_unweighted_covers_every_cell_once():
    g, h = build_pipeline(flat_scene(10, 10, depots=[(0, 0)]))
    tree = minimum_spanning_tree(h, (0, 0))
    loop = spiral_stc_loop(g, tree, (0, 0))
    assert len(loop) == 4 * len(tree) == 100
    assert len(set(loop.nodes)) == 100


def test_loop_node_set_equals_covered_cells():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        blocked = rng.random((6, 6)) < 0.2
        blocked[0, 0] = blocked[0, 1] = blocked[1, 0] = blocked[1, 1] = False
        scene = Scene(width=6, height=6, blocked=blocked, depots=[(0, 0)])
        try:
            g, h = build_pipeline(scene)
            comp = {b for b in h.blocks}
            if not comp or len(h.edges) < len(h.blocks) - 1:
                continue
            tree = minimum_spanning_tree(h, (0, 0))
        except Exception:
            continue
        loop = spiral_stc_loop(g, tree, (0, 0))
        expected = {(2 * bx + dx, 2 * by + dy) for bx, by in tree.blocks
                    for dx in (0, 1) for dy in (0, 1)}
        assert set(loop.nodes) == expected
        assert len(loop) == len(expected)


def test_loop_hops_are_graph_edges_at_chebyshev_distance_one():
    scene = flat_scene(8, 8, depots=[(0, 0)], blocked_cells=[(4, 4), (5, 4)])
    g, h = build_pipeline(scene)
    tree = minimum_spanning_tree(h, (0, 0))
    loop = spiral_stc_loop(g, tree, (0, 0))
    for i, cell in enumerate(loop.nodes):
        nxt = loop.nodes[(i + 1) % len(loop)]
        assert max(abs(cell[0] - nxt[0]), abs(cell[1] - nxt[1])) == 1
        assert not math.isnan(hop_weight(g, cell, nxt))


def test_loop_reversal_preserves_node_set():
    g, h = build_pipeline(flat_scene(6, 6, depots=[(0, 0)]))
    tree = minimum_spanning_tree(h, (0, 0))
    loop = spiral_stc_loop(g, tree, (0, 0))
    reversed_nodes = [loop.nodes[0]] + loop.nodes[:0:-1]
    assert set(reversed_nodes) == set(loop.nodes)
    assert loop.total_weight == pytest.approx(sum(loop.edge_weights))


def test_loop_rejects_uncovered_start():
    scene = flat_scene(4, 4, depots=[(0, 0)])
    g, h = build_pipeline(scene)
    tree = minimum_spanning_tree(h, (0, 0))
    with pytest.raises(StcError):
        spiral_stc_loop(g, tree, (9, 9))


def test_loop_rejects_tree_it_cannot_close():
    # two blocks without the edge that joins them: the walk closes after 4 cells
    g, _ = build_pipeline(flat_scene(4, 2, depots=[(0, 0)]))
    tree = spanning_tree([(0, 0), (1, 0)], {})
    with pytest.raises(StcError, match="covered 4 of 8 cells"):
        spiral_stc_loop(g, tree, (0, 0))


def test_loop_rejects_hop_outside_covering_graph():
    g, _ = build_pipeline(flat_scene(2, 2, depots=[(0, 0)]))
    tree = spanning_tree([(0, 0), (1, 0)], {((0, 0), (1, 0)): 2.0})
    with pytest.raises(StcError, match="not a covering-graph edge"):
        spiral_stc_loop(g, tree, (0, 0))


def test_loop_weight_hand_built_corner_cut_loop():
    # domino with a bow-tie wrap at the right block: 6 unit + 2 diagonal hops
    g, h = build_pipeline(flat_scene(4, 2, depots=[(0, 0)]))
    nodes = [(0, 0), (1, 0), (2, 0), (3, 1), (3, 0), (2, 1), (1, 1), (0, 1)]
    weights = np.array([hop_weight(g, a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])])
    x, y = np.array(nodes).T
    loop = CoverageLoop(x, y, weights, float(np.cumsum(weights)[-1]))
    assert loop.nodes == nodes
    assert loop.total_weight == pytest.approx(6 + 2 * SQRT2)


def test_mst_loop_cheaper_than_arbitrary_tree_loop():
    rng = np.random.default_rng(7)
    elev = rng.normal(0.0, 0.12, (10, 10)).cumsum(axis=1)
    scene = Scene(width=10, height=10, depots=[(0, 0)], elevation=elev)
    cfg = PlannerConfig()
    g, h = build_pipeline(scene, cfg)
    mst = minimum_spanning_tree(h, (0, 0))
    arbitrary = dfs_tree(h, (0, 0))
    assert mst.total_weight <= arbitrary.total_weight + 1e-12
    mst_loop = spiral_stc_loop(g, mst, (0, 0))
    dfs_loop = spiral_stc_loop(g, arbitrary, (0, 0))
    assert mst_loop.total_weight < dfs_loop.total_weight
