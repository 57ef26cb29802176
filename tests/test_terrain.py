import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcpp.scene import Scene
from mrcpp.terrain import (TerrainError, build_traversability, compute_edge_slope,
                           merge_masks, remove_isolated, steepness_filter)

from conftest import flat_scene, free_cells


def random_scene(seed: int, width=12, height=12, block_p=0.15, with_elevation=True):
    rng = np.random.default_rng(seed)
    blocked = rng.random((height, width)) < block_p
    elevation = None
    if with_elevation:
        elevation = rng.normal(0.0, 0.25, (height, width)).cumsum(axis=1)
    return Scene(width=width, height=height, blocked=blocked, elevation=elevation)


def brute_force_edges(scene: Scene, threshold: float):
    """Independent scan of every 4-connected free-free edge."""
    out = {}
    free = ~scene.blocked
    for y in range(scene.height):
        for x in range(scene.width):
            if not free[y, x]:
                continue
            for dx, dy in ((1, 0), (0, 1)):
                nx, ny = x + dx, y + dy
                if nx < scene.width and ny < scene.height and free[ny, nx]:
                    if scene.elevation is None:
                        slope = 0.0
                    else:
                        rise = abs(scene.elevation[ny, nx] - scene.elevation[y, x])
                        slope = math.degrees(math.atan(rise / scene.cell_size))
                    if slope <= threshold:
                        out[frozenset([(x, y), (nx, ny)])] = slope
    return out


def flood_fill(edges, seeds):
    adjacency = {}
    for (a, b) in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        cell = queue.popleft()
        for nbr in adjacency.get(cell, ()):
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    return seen


def test_edge_slope_flat_is_zero():
    scene = flat_scene(3, 3, depots=[(0, 0)])
    assert compute_edge_slope(scene, (0, 0), (1, 0)) == 0.0


def test_edge_slope_unit_rise_is_45_degrees():
    elev = np.array([[0.0, 1.0], [0.0, 1.0]])
    scene = Scene(width=2, height=2, depots=[(0, 0)], elevation=elev)
    assert compute_edge_slope(scene, (0, 0), (1, 0)) == pytest.approx(45.0)


def test_edge_slope_ramp_hand_table():
    # rows [0, 1, 3]: first step rises 1 (45 deg), second rises 2 (atan 2)
    elev = np.tile(np.array([0.0, 1.0, 3.0]), (3, 1))
    scene = Scene(width=3, height=3, depots=[(0, 0)], elevation=elev)
    assert compute_edge_slope(scene, (0, 1), (1, 1)) == pytest.approx(45.0)
    assert compute_edge_slope(scene, (1, 1), (2, 1)) == pytest.approx(63.43494882292201)
    assert compute_edge_slope(scene, (1, 0), (1, 1)) == 0.0


def test_edge_slope_rejects_non_adjacent():
    scene = flat_scene(3, 3, depots=[(0, 0)])
    with pytest.raises(TerrainError):
        compute_edge_slope(scene, (0, 0), (1, 1))


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, -math.inf])
def test_steepness_filter_rejects_threshold_that_is_not_positive(threshold):
    scene = flat_scene(3, 3, depots=[(0, 0)])
    with pytest.raises(TerrainError, match="slope threshold must be positive"):
        steepness_filter(scene, threshold)


def test_steepness_filter_flat_retains_everything():
    scene = flat_scene(4, 4, depots=[(0, 0)])
    tmap = steepness_filter(scene, 25.0)
    assert tmap.free.all()
    assert len(tmap.edge_slopes) == 2 * 4 * 3
    assert tmap.slope_bounds == (0.0, 25.0)


def test_steepness_filter_drops_steep_edge():
    elev = np.array([[0.0, 0.0, 0.6]] * 2)  # 30.96 deg on the second step
    scene = Scene(width=3, height=2, depots=[(0, 0)], elevation=elev)
    tmap = steepness_filter(scene, 25.0)
    assert not tmap.edge_slopes.get(((1, 0), (2, 0)))
    assert ((0, 0), (1, 0)) in tmap.edge_slopes


# grid shapes (width, height) the brute-force tests run on, degenerate ones included
SHAPES = [(12, 12), (1, 9), (9, 1), (1, 1), (2, 1), (7, 5), (13, 11)]


def test_steepness_filter_matches_brute_force_scan():
    for seed, shape in itertools.product(range(10), SHAPES):
        scene = random_scene(seed, *shape)
        tmap = steepness_filter(scene, 25.0)
        oracle = brute_force_edges(scene, 25.0)
        got = {frozenset(e): s for e, s in tmap.edge_slopes.items()}
        assert got.keys() == oracle.keys()
        for key, slope in oracle.items():
            assert got[key] == pytest.approx(slope)


def test_steepness_filter_drops_edgeless_cells():
    # a lone free cell surrounded by blocked neighbours has no edges
    scene = flat_scene(3, 3, depots=[(0, 0)],
                       blocked_cells=[(1, 0), (0, 1), (2, 1), (1, 2)])
    tmap = steepness_filter(scene, 25.0)
    assert not tmap.is_free((1, 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_steepness_filter_idempotent(seed):
    scene = random_scene(seed, width=8, height=8)
    once = steepness_filter(scene, 25.0)
    again_scene = Scene(width=8, height=8, blocked=~once.free,
                        elevation=scene.elevation)
    twice = steepness_filter(again_scene, 25.0)
    assert np.array_equal(once.free, twice.free)
    assert once.edge_slopes == twice.edge_slopes


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(5.0, 20.0), st.floats(20.0, 45.0))
def test_steepness_filter_threshold_monotone(seed, low, high):
    scene = random_scene(seed, width=8, height=8)
    strict = steepness_filter(scene, low)
    loose = steepness_filter(scene, high)
    assert set(strict.edge_slopes) <= set(loose.edge_slopes)


def test_remove_isolated_keeps_single_component():
    scene = flat_scene(4, 4, depots=[(0, 0)])
    tmap = steepness_filter(scene, 25.0)
    pruned = remove_isolated(tmap, [(0, 0)])
    assert np.array_equal(pruned.free, tmap.free)
    assert pruned.edge_slopes == tmap.edge_slopes


def test_remove_isolated_drops_depotless_component():
    # wall at x=2 splits the grid; depot in the left part
    wall = [(2, y) for y in range(4)]
    scene = flat_scene(5, 4, depots=[(0, 0)], blocked_cells=wall)
    tmap = steepness_filter(scene, 25.0)
    pruned = remove_isolated(tmap, [(0, 0)])
    assert pruned.is_free((1, 1))
    assert not pruned.is_free((4, 0))


def test_remove_isolated_rejects_nonfree_depot():
    scene = flat_scene(4, 4, depots=[(0, 0)], blocked_cells=[(3, 3)])
    tmap = steepness_filter(scene, 25.0)
    with pytest.raises(TerrainError):
        remove_isolated(tmap, [(3, 3)])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(20, 20)] + SHAPES))
def test_remove_isolated_matches_flood_fill(seed, shape):
    rng = np.random.default_rng(seed)
    scene = random_scene(seed, *shape, block_p=0.3)
    tmap = steepness_filter(scene, 25.0)
    cells = free_cells(tmap)
    if not cells:
        return
    depots = [cells[int(rng.integers(len(cells)))] for _ in range(3)]
    pruned = remove_isolated(tmap, depots)
    expected = flood_fill(brute_force_edges(scene, 25.0), depots)
    assert set(free_cells(pruned)) == expected


def test_merge_masks_identity():
    scene = flat_scene(4, 4, depots=[(0, 0)])
    tmap = steepness_filter(scene, 25.0)
    merged = merge_masks(tmap, np.ones((4, 4), dtype=bool))
    assert np.array_equal(merged.free, tmap.free)
    assert merged.edge_slopes == tmap.edge_slopes


def test_merge_masks_all_non_working():
    scene = flat_scene(4, 4, depots=[(0, 0)])
    tmap = steepness_filter(scene, 25.0)
    merged = merge_masks(tmap, np.zeros((4, 4), dtype=bool))
    assert not merged.free.any()
    assert not merged.edge_slopes


def test_merge_masks_checkerboard_is_cellwise_and():
    scene = flat_scene(6, 6, depots=[(0, 0)])
    tmap = steepness_filter(scene, 25.0)
    ys, xs = np.mgrid[0:6, 0:6]
    checker = (xs + ys) % 2 == 0
    merged = merge_masks(tmap, checker)
    assert np.array_equal(merged.free, tmap.free & checker)
    assert not merged.edge_slopes  # no two adjacent cells share a parity


def test_merge_masks_dimension_mismatch():
    scene = flat_scene(4, 4, depots=[(0, 0)])
    tmap = steepness_filter(scene, 25.0)
    with pytest.raises(TerrainError):
        merge_masks(tmap, np.ones((3, 3), dtype=bool))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(8, 8)] + SHAPES))
def test_merge_masks_intersection_property(seed, shape):
    rng = np.random.default_rng(seed)
    scene = random_scene(seed, *shape)
    tmap = steepness_filter(scene, 25.0)
    mask = rng.random(shape[::-1]) < 0.7
    merged = merge_masks(tmap, mask)
    assert np.array_equal(merged.free, tmap.free & mask)
    # the merged edges are the map's edges between two cells left free
    assert merged.edge_slopes == {
        (a, b): s for (a, b), s in tmap.edge_slopes.items()
        if mask[a[1], a[0]] and mask[b[1], b[0]]}


def test_build_traversability_rejects_split_depots():
    wall = [(2, y) for y in range(4)]
    scene = flat_scene(5, 4, depots=[(0, 0), (4, 0)], blocked_cells=wall)
    with pytest.raises(Exception, match="disconnected"):
        build_traversability(scene, 25.0)
