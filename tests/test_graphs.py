import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from mrcpp import graphs
from mrcpp.graphs import (PATHS_CHUNK, GraphError, PlannerConfig, build_covering_graph,
                          build_spanning_graph, edge_weight)
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene, SceneError
from mrcpp.scenegen import _largest_component_cells, generate_scene
from mrcpp.terrain import build_traversability, steepness_filter

from conftest import (bfs_components, compute_edge_slope, flat_scene, hop_weight,
                      scan_covering_graph, scan_spanning_graph, shortest_path)

SQRT2 = math.sqrt(2.0)
PAPER_CFG = PlannerConfig(alpha=1 / 3, beta=2 / 3)


def weighted_map(seed: int, width=8, height=8, block_p=0.1):
    rng = np.random.default_rng(seed)
    blocked = rng.random((height, width)) < block_p
    blocked[0, 0] = False
    elev = rng.normal(0.0, 0.15, (height, width)).cumsum(axis=1)
    scene = Scene(width=width, height=height, blocked=blocked, elevation=elev,
                  depots=[(0, 0)])
    return steepness_filter(scene, 25.0)


def test_edge_weight_pure_distance():
    cfg = PlannerConfig(alpha=1.0, beta=0.0)
    assert edge_weight(1.0, 0.0, (0.0, 25.0), cfg) == 1.0


def test_edge_weight_unit_edge_at_max_slope_is_one():
    assert edge_weight(1.0, 25.0, (0.0, 25.0), PAPER_CFG) == 1.0


def test_edge_weight_flat_unit_edge_is_one_third():
    assert edge_weight(1.0, 0.0, (0.0, 25.0), PAPER_CFG) == 1 / 3


def test_edge_weight_diagonal_midway_slope():
    got = edge_weight(SQRT2, 12.5, (0.0, 25.0), PAPER_CFG)
    assert got == pytest.approx(SQRT2 / 3 + 1 / 3)


def test_edge_weight_degenerate_bounds():
    assert edge_weight(1.0, 10.0, (10.0, 10.0), PAPER_CFG) == pytest.approx(1 / 3)


def test_edge_weight_rejects_out_of_bounds_slope():
    with pytest.raises(GraphError):
        edge_weight(1.0, 30.0, (0.0, 25.0), PAPER_CFG)


def test_covering_graph_flat_block_edges():
    tmap = build_traversability(flat_scene(2, 2, depots=[(0, 0)]), 25.0)
    g = build_covering_graph(tmap, PAPER_CFG)
    orth = [w for (i, j), w in g.weights.items()
            if abs(g.cells[i][0] - g.cells[j][0]) + abs(g.cells[i][1] - g.cells[j][1]) == 1]
    diag = [w for (i, j), w in g.weights.items()
            if abs(g.cells[i][0] - g.cells[j][0]) == 1 and abs(g.cells[i][1] - g.cells[j][1]) == 1]
    assert len(orth) == 4 and len(diag) == 2
    assert all(w == pytest.approx(PAPER_CFG.alpha * 1.0) for w in orth)
    assert all(w == pytest.approx(PAPER_CFG.alpha * SQRT2) for w in diag)


def test_covering_graph_unweighted_mode_weights():
    cfg = PlannerConfig(alpha=1.0, beta=0.0)
    tmap = build_traversability(flat_scene(4, 4, depots=[(0, 0)]), 25.0)
    g = build_covering_graph(tmap, cfg)
    assert set(round(w, 12) for w in g.weights.values()) == {1.0, round(SQRT2, 12)}


# grid shapes (width, height) the brute-force tests run on, degenerate ones included
SHAPES = [(8, 8), (1, 9), (9, 1), (1, 1), (2, 1), (7, 5), (13, 11)]


def test_covering_graph_weights_match_recomputation():
    for shape in SHAPES:
        tmap = weighted_map(3, *shape)
        if not tmap.edge_slopes:
            with pytest.raises(GraphError, match="no edges"):
                build_covering_graph(tmap, PAPER_CFG)
            continue
        g = build_covering_graph(tmap, PAPER_CFG)
        for (a, b), slope in tmap.edge_slopes.items():
            expected = edge_weight(1.0, slope, tmap.slope_bounds, PAPER_CFG)
            assert hop_weight(g, a, b) == pytest.approx(expected)


def test_spanning_graph_full_4x4():
    tmap = build_traversability(flat_scene(4, 4, depots=[(0, 0)]), 25.0)
    h = build_spanning_graph(tmap, PAPER_CFG)
    assert len(h.blocks) == 4
    assert len(h.edges) == 4
    assert all(w == pytest.approx(PAPER_CFG.alpha * 2.0) for w in h.edges.values())


def test_spanning_graph_blocked_cell_kills_block():
    tmap = build_traversability(
        flat_scene(4, 4, depots=[(0, 0)], blocked_cells=[(2, 2)]), 25.0)
    h = build_spanning_graph(tmap, PAPER_CFG)
    assert h.blocks == [(0, 0), (1, 0), (0, 1)]
    assert h.block_of((2, 2)) is None and h.block_of((3, 3)) is None


def test_spanning_graph_matches_all_free_block_scan_on_flat_maps():
    for seed, (width, height) in itertools.product(range(8), [(10, 10)] + SHAPES):
        rng = np.random.default_rng(seed)
        blocked = rng.random((height, width)) < 0.2
        scene = Scene(width=width, height=height, blocked=blocked, depots=[])
        tmap = steepness_filter(scene, 25.0)
        h = build_spanning_graph(tmap, PAPER_CFG)
        expected = set()
        for by in range(height // 2):
            for bx in range(width // 2):
                cells = [(2 * bx + dx, 2 * by + dy) for dx in (0, 1) for dy in (0, 1)]
                if all(tmap.is_free(c) for c in cells):
                    expected.add((bx, by))
        assert set(h.blocks) == expected


def test_spanning_graph_excludes_internally_broken_blocks():
    # steep edge inside an otherwise free 2x2 block: no spanning node
    elev = np.zeros((2, 4))
    elev[:, 3:] = 10.0  # cliff between x=2 and x=3, inside block (1, 0)
    scene = Scene(width=4, height=2, depots=[(0, 0)], elevation=elev)
    tmap = steepness_filter(scene, 25.0)
    h = build_spanning_graph(tmap, PAPER_CFG)
    assert h.blocks == [(0, 0)]
    assert h.block_of((1, 1)) == (0, 0) and h.block_of((2, 0)) is None


def test_slopes_and_weights_equal_scalar_formulas_bit_for_bit():
    # exact equality: a vectorised slope or weight that drifts by one ulp
    # from compute_edge_slope changes shortest paths and plan bytes
    rng = np.random.default_rng(5)
    ragged = Scene(width=13, height=9, cell_size=0.7, depots=[(0, 0)],
                   blocked=rng.random((9, 13)) < 0.1,
                   elevation=rng.normal(0.0, 0.4, (9, 13)).cumsum(axis=1))
    ragged.blocked[0, 0] = False
    scenes = [generate_scene("random", seed) for seed in range(4)]
    scenes += [generate_scene("field", seed=0, width=64, height=64), ragged]
    for scene in scenes:
        free = ~scene.blocked
        slopes = {}
        for y in range(scene.height):
            for x in range(scene.width):
                for b in ((x + 1, y), (x, y + 1)):
                    if b[0] < scene.width and b[1] < scene.height and free[y, x] \
                            and free[b[1], b[0]]:
                        slopes[((x, y), b)] = compute_edge_slope(scene, (x, y), b)
        retained = {e: s for e, s in slopes.items() if s <= 25.0}
        tmap = steepness_filter(scene, 25.0)
        assert tmap.edge_slopes == retained
        assert tmap.slope_bounds == (min(retained.values()), 25.0)

        try:
            tmap = build_traversability(scene, 25.0)
        except SceneError:
            continue
        g = build_covering_graph(tmap, PAPER_CFG)
        slopes = {e: s for e, s in retained.items() if tmap.is_free(e[0]) and tmap.is_free(e[1])}
        expected = scan_covering_graph(slopes, tmap.slope_bounds, PAPER_CFG)
        index = g.index
        assert g.weights == {(index[a], index[b]): w for (a, b), w in expected.items()}


def test_lookups_match_brute_force_scan():
    # every ordered pair of cells at most 3 apart in x and y, a one-cell border
    # included: a hop three cells long, a diagonal across two blocks or through
    # a block that is not intact, and a -1 index wrapped round the raster must
    # all read as no edge
    for seed, (width, height) in itertools.product(range(5), SHAPES):
        tmap = weighted_map(seed, width, height)
        if not tmap.edge_slopes:
            continue
        g = build_covering_graph(tmap, PAPER_CFG)
        expected = scan_covering_graph(tmap.edge_slopes, tmap.slope_bounds, PAPER_CFG)
        cells = list(itertools.product(range(-1, width + 1), range(-1, height + 1)))
        pairs = [(a, b) for a in cells for b in cells
                 if abs(a[0] - b[0]) <= 3 and abs(a[1] - b[1]) <= 3]
        x, y = np.array(list(itertools.chain.from_iterable(pairs))).T
        hops = g.hop_weights(x, y)[::2]
        for (a, b), hop in zip(pairs, hops.tolist()):
            want = expected.get((a, b), expected.get((b, a)))
            assert hop == want if want is not None else math.isnan(hop), (a, b)
            if seed == 0:   # one hop at a time, on fewer maps: it is slower
                weight = hop_weight(g, a, b)
                assert weight == want if want is not None else math.isnan(weight), (a, b)


def test_lookups_off_the_graph_raise_graph_error():
    tmap = build_traversability(flat_scene(4, 3, depots=[(0, 0)], blocked_cells=[(2, 1)]), 25.0)
    g = build_covering_graph(tmap, PAPER_CFG)
    for cell in [(-1, 0), (0, -1), (4, 0), (0, 3), (2, 1)]:
        for lookup, args in ((g.sssp, [cell]), (g.node_of, [cell]),
                             (g.distance, [cell, (0, 0)]), (g.distance, [(0, 0), cell]),
                             (g.path, [cell, (0, 0)]), (g.path, [(0, 0), cell])):
            with pytest.raises(GraphError, match=re.escape(f"cell {cell} is not a node")):
                lookup(*args)
    # a depot that is not a node is refused before G is built
    with pytest.raises(SceneError, match=re.escape("depot (2, 1) is not traversable")):
        build_traversability(flat_scene(4, 3, depots=[(0, 0), (2, 1)],
                                        blocked_cells=[(2, 1)]), 25.0)
    # the nodes around the blocked cell still work
    path = list(map(tuple, g.path((0, 0), (3, 2)).tolist()))
    assert path[0] == (0, 0) and path[-1] == (3, 2)
    assert not any(math.isnan(hop_weight(g, a, b)) for a, b in zip(path, path[1:]))


def test_paths_from_equal_one_path_per_cell():
    """One walk for many cells gives each cell, the source included, the
    path and the distance that ``path`` and ``distance`` give it, over
    several chunks of cells, each path the walk up the source's
    predecessors; off the graph or out of reach it raises as ``path``
    does."""
    g = ScenePlanner(generate_scene("field", seed=3, width=32, height=32)).graph
    cells = g.cells
    assert len(cells) > 3 * PATHS_CHUNK
    source = cells[len(cells) // 2]
    x, y = np.array(cells[::-1]).T
    dist, legs = g.paths_from(source, x, y)
    assert [leg.tolist() for leg in legs] == [g.path(source, cell).tolist()
                                              for cell in cells[::-1]]
    assert dist.tolist() == [g.distance(source, cell) for cell in cells[::-1]]
    assert g.path(source, source).tolist() == [list(source)]
    _, pred = g.sssp(source)
    for cell in cells[::37]:
        walk = [g.node_of(cell)]
        while walk[-1] != g.node_of(source):
            walk.append(int(pred[walk[-1]]))
        assert g.path(source, cell).tolist() == [list(cells[i]) for i in walk[::-1]]
    # every path is a read-only int32 view of one array of all the cells
    assert {leg.dtype for leg in legs} == {np.dtype(np.int32)}
    assert len({id(leg.base) for leg in legs}) == 1
    with pytest.raises(ValueError, match="read-only"):
        legs[0][0, 0] = 1
    # a wall at x = 2 splits this map in two
    tmap = steepness_filter(flat_scene(6, 3, depots=[(0, 0)],
                                       blocked_cells=[(2, 0), (2, 1), (2, 2)]), 25.0)
    g = build_covering_graph(tmap, PAPER_CFG)
    for cell, message in (((5, 0), "no path between (0, 0) and (5, 0)"),
                          ((2, 1), "cell (2, 1) is not a node")):
        with pytest.raises(GraphError, match=re.escape(message)):
            g.paths_from((0, 0), np.array([1, cell[0]]), np.array([0, cell[1]]))
        with pytest.raises(GraphError, match=re.escape(message)):
            g.path((0, 0), cell)


@pytest.mark.parametrize("seed", range(6))
def test_components_match_bfs_oracle(seed):
    # walls at x = 4-5 and 10-11 (and, for odd seeds, y = 6-7) cut the
    # grid into equal-size regions; scattered blocked cells add singletons
    rng = np.random.default_rng(seed)
    blocked = rng.random((14, 16)) < 0.08 * (seed % 3)
    blocked[:, 4:6] = blocked[:, 10:12] = True
    if seed % 2:
        blocked[6:8, :] = True
    scene = Scene(width=16, height=14, blocked=blocked, depots=[])
    h = build_spanning_graph(steepness_filter(scene, 25.0), PAPER_CFG)
    groups, edges, labels = bfs_components(h), h.edges, h.labels()
    for group in groups:
        part = h.component(group[-1])
        assert part.blocks == group
        assert part.edges == {e: w for e, w in edges.items() if e[0] in group}
        assert len({labels[y, x] for x, y in group}) == 1
    assert len({labels[y, x] for (x, y), *_ in groups}) == len(groups)
    assert len({len(group) for group in groups}) < len(groups)  # some sizes tie
    # scene generation draws its depots from the largest group, the first on ties
    assert _largest_component_cells(scene) == [
        (2 * bx + dx, 2 * by + dy) for bx, by in groups[0] for dy in (0, 1) for dx in (0, 1)]


@pytest.mark.parametrize("width, height", [(6, 1), (1, 6), (1, 1)])
def test_spanning_graph_with_no_block_rows_or_columns_has_no_components(width, height):
    # a one-row (or one-column) scene has no intact 2x2 block, so H's rasters
    # have zero rows (or columns)
    h = build_spanning_graph(steepness_filter(flat_scene(width, height, depots=[(0, 0)]),
                                              25.0), PAPER_CFG)
    assert h.intact.shape == (height // 2, width // 2) and len(h) == 0
    assert h.labels().shape == h.intact.shape
    for block in ((0, 0), (1, 0), (-1, 0)):
        part = h.component(block)
        assert part.intact.shape == h.intact.shape and not part.blocks and not part.edges


def test_component_of_a_block_that_is_not_a_spanning_node_is_empty():
    scene = flat_scene(6, 4, depots=[(0, 0)], blocked_cells=[(2, 0)])
    h = build_spanning_graph(steepness_filter(scene, 25.0), PAPER_CFG)
    labels = h.labels()
    assert labels[0, 1] == 0 and labels[h.intact].min() >= 1
    for block in ((1, 0), (3, 0), (0, 2), (-1, 0), (0, -1)):
        assert not h.component(block).blocks, block
    assert h.component((0, 0)).blocks == h.blocks


def test_spanning_graph_matches_brute_force_block_scan():
    # odd sizes leave a trailing row or column uncovered; steep and blocked
    # cells drop the lanes that would join two blocks
    for seed, (width, height) in itertools.product(range(5), SHAPES):
        tmap = weighted_map(seed, width, height)
        h = build_spanning_graph(tmap, PAPER_CFG)
        blocks, edges = scan_spanning_graph(tmap, PAPER_CFG)
        assert h.blocks == blocks
        assert h.edges == edges
        for x, y in itertools.product(range(-1, width + 1), range(-1, height + 1)):
            block = (x // 2, y // 2)
            assert h.block_of((x, y)) == (block if block in blocks else None)


def test_shortest_path_identity():
    tmap = build_traversability(flat_scene(4, 4, depots=[(0, 0)]), 25.0)
    g = build_covering_graph(tmap, PAPER_CFG)
    path, cost = shortest_path(g, (1, 1), (1, 1))
    assert path == [(1, 1)] and cost == 0.0


def test_shortest_path_corridor():
    cfg = PlannerConfig(alpha=1.0, beta=0.0)
    tmap = build_traversability(flat_scene(6, 1, depots=[(0, 0)]), 25.0)
    g = build_covering_graph(tmap, cfg)
    path, cost = shortest_path(g, (0, 0), (5, 0))
    assert cost == pytest.approx(5.0)
    assert path == [(x, 0) for x in range(6)]


def bellman_ford(g, source):
    dist = {i: math.inf for i in range(len(g.cells))}
    dist[g.index[source]] = 0.0
    for _ in range(len(g.cells) - 1):
        changed = False
        for (i, j), w in g.weights.items():
            if dist[i] + w < dist[j]:
                dist[j] = dist[i] + w
                changed = True
            if dist[j] + w < dist[i]:
                dist[i] = dist[j] + w
                changed = True
        if not changed:
            break
    return dist


def test_shortest_path_matches_bellman_ford():
    tmap = weighted_map(11)
    g = build_covering_graph(tmap, PAPER_CFG)
    source = g.cells[0]
    oracle = bellman_ford(g, source)
    rng = np.random.default_rng(0)
    for idx in rng.choice(len(g.cells), size=12, replace=False):
        target = g.cells[int(idx)]
        if math.isinf(oracle[g.index[target]]):
            continue
        _, cost = shortest_path(g, source, target)
        assert cost == pytest.approx(oracle[g.index[target]])


def test_scipy_distances_match_dijkstra():
    tmap = weighted_map(13)
    g = build_covering_graph(tmap, PAPER_CFG)
    source = g.cells[2]
    dist, _ = g.sssp(source)
    for target in g.cells[::7]:
        if math.isinf(dist[g.index[target]]):
            continue
        _, cost = shortest_path(g, source, target)
        assert cost == pytest.approx(float(dist[g.index[target]]))


@pytest.mark.parametrize("kind, seed, side", [("blocked", 1, 16), ("random", 2, 10),
                                             ("field", 3, 32), ("weighted", 5, 12)])
def test_one_solve_for_many_sources_equals_single_source_solves(kind, seed, side):
    """``solve`` caches, from one Dijkstra call, each source's distances and
    predecessors exactly as a single-source solve gives them: refill legs
    read the predecessors.  A flat walled scene ties many paths, and a
    weighted map with a high block share leaves cells unreachable."""
    if kind == "weighted":
        g = build_covering_graph(weighted_map(seed, side, side, block_p=0.3), PAPER_CFG)
    else:
        g = ScenePlanner(generate_scene(kind, seed, width=side, height=side)).graph
    cells = g.cells
    sources = [cells[i] for i in (0, len(cells) // 3, len(cells) - 1, len(cells) // 2)]
    g.sssp(sources[1])   # one source cached already
    calls = []
    with mock.patch.object(graphs, "dijkstra",
                           lambda *a, **kw: calls.append(kw["indices"]) or dijkstra(*a, **kw)):
        g.solve(sources + sources[:1])
    assert calls == [[g.node_of(c) for c in sources if c != sources[1]]]
    for cell in sources:
        want = dijkstra(g.matrix, directed=False, indices=g.node_of(cell),
                        return_predecessors=True)
        for got, row in zip(g.sssp(cell), want):
            np.testing.assert_array_equal(got, row)
    assert np.isinf(g.sssp(sources[0])[0]).any() == (kind == "weighted")


@pytest.mark.parametrize("kind, seed, side", [("blocked", seed, 16) for seed in range(4)]
                         + [("field", seed, 24) for seed in (0, 3)])
def test_solve_equals_the_undirected_search(kind, seed, side):
    """``solve`` searches G's matrix as a directed graph, which holds each
    edge both ways: distances and predecessors equal an undirected search's
    exactly, on flat walled scenes where equal-cost paths tie and on field
    terrain."""
    g = ScenePlanner(generate_scene(kind, seed, width=side, height=side)).graph
    cells = g.cells
    sources = cells[::max(1, len(cells) // 9)]
    g.solve(sources)
    nodes = [g.node_of(c) for c in sources]
    want = dijkstra(g.matrix, directed=False, indices=nodes, return_predecessors=True)
    for i, cell in enumerate(sources):
        for got, rows in zip(g.sssp(cell), want):
            np.testing.assert_array_equal(got, rows[i])


@pytest.mark.parametrize("kind, seed", [("blocked", 1), ("random", 2), ("field", 3)])
def test_covering_matrix_equals_its_transpose(kind, seed):
    g = ScenePlanner(generate_scene(kind, seed)).graph
    assert (g.matrix != g.matrix.T).nnz == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_scaling_alpha_beta_preserves_paths(seed, lam):
    tmap = weighted_map(seed, width=6, height=6)
    if len(tmap.edge_slopes) < 8:
        return
    base = PlannerConfig(alpha=1 / 3, beta=2 / 3)
    scaled = PlannerConfig(alpha=lam / 3, beta=2 * lam / 3)
    g1 = build_covering_graph(tmap, base)
    g2 = build_covering_graph(tmap, scaled)
    for key, w in g1.weights.items():
        assert g2.weights[key] == pytest.approx(lam * w)
    cells = sorted(g1.index)
    a, b = cells[0], cells[-1]
    try:
        p1, c1 = shortest_path(g1, a, b)
        p2, c2 = shortest_path(g2, a, b)
    except GraphError:
        return
    assert p1 == p2
    assert c2 == pytest.approx(lam * c1)


def test_normalized_slope_in_unit_interval():
    for seed in range(6):
        tmap = weighted_map(seed)
        lo, hi = tmap.slope_bounds
        for slope in tmap.edge_slopes.values():
            normalized = 0.0 if hi <= lo else (slope - lo) / (hi - lo)
            assert 0.0 <= normalized <= 1.0


def test_triangle_inequality_sampled():
    tmap = weighted_map(17)
    g = build_covering_graph(tmap, PAPER_CFG)
    rng = np.random.default_rng(1)
    cells = g.cells
    for _ in range(20):
        a, b, c = (cells[int(i)] for i in rng.choice(len(cells), size=3))
        try:
            _, ab = shortest_path(g, a, b)
            _, bc = shortest_path(g, b, c)
            _, ac = shortest_path(g, a, c)
        except GraphError:
            continue
        assert ac <= ab + bc + 1e-9
