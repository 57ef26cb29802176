"""Traversability analysis: slope thresholding, masking, isolation pruning.

The output of this module is a :class:`TraversabilityMap`: the free-cell
raster together with the slope (degrees) of every retained 4-connected
edge and the slope bounds used later for weight normalization.  The upper
bound is always the filter threshold; the lower bound is the minimum
retained slope.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import math

import numpy as np

from .scene import Cell, Scene, SceneError

Edge = tuple[Cell, Cell]

DEFAULT_SLOPE_THRESHOLD = 25.0


class TerrainError(ValueError):
    """Raised when traversability inputs are inconsistent."""


def _canon(a: Cell, b: Cell) -> Edge:
    # canonical edge key: row-major smaller endpoint first
    return (a, b) if (a[1], a[0]) <= (b[1], b[0]) else (b, a)


@dataclass
class TraversabilityMap:
    free: np.ndarray                    # bool, shape (height, width)
    edge_slopes: dict[Edge, float]      # degrees, keyed by _canon(a, b)
    slope_bounds: tuple[float, float]   # (min retained slope, threshold)

    @property
    def width(self) -> int:
        return self.free.shape[1]

    @property
    def height(self) -> int:
        return self.free.shape[0]

    def is_free(self, cell: Cell) -> bool:
        x, y = cell
        return bool(self.free[y, x])

    def slope(self, a: Cell, b: Cell) -> float:
        return self.edge_slopes[_canon(a, b)]

    def free_cells(self) -> list[Cell]:
        ys, xs = np.nonzero(self.free)
        return [(int(x), int(y)) for y, x in zip(ys, xs)]


def compute_edge_slope(scene: Scene, a: Cell, b: Cell) -> float:
    """Slope of the edge between two 4-adjacent cells, in degrees.

    Flat (no elevation raster) scenes have zero slope everywhere.
    """
    if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
        raise TerrainError(f"cells {a} and {b} are not 4-adjacent")
    if scene.elevation is None:
        return 0.0
    rise = abs(float(scene.elevation[a[1], a[0]]) - float(scene.elevation[b[1], b[0]]))
    run = scene.cell_size  # planar distance of one cell edge
    return math.degrees(math.atan2(rise, run))


def _drop_edgeless_cells(free: np.ndarray, edges: dict[Edge, float]) -> np.ndarray:
    keep = np.zeros_like(free)
    for (a, b) in edges:
        keep[a[1], a[0]] = True
        keep[b[1], b[0]] = True
    return free & keep


def steepness_filter(scene: Scene, threshold: float = DEFAULT_SLOPE_THRESHOLD) -> TraversabilityMap:
    """Build the steepness traversability map for a scene.

    Edges steeper than ``threshold`` degrees are removed; cells left with
    no incident edge become non-free.  The retained slope bounds are
    ``(min retained slope, threshold)``.
    """
    if threshold <= 0:
        raise TerrainError("slope threshold must be positive")
    free = ~scene.blocked
    edges: dict[Edge, float] = {}
    for y in range(scene.height):
        for x in range(scene.width):
            if not free[y, x]:
                continue
            if x + 1 < scene.width and free[y, x + 1]:
                s = compute_edge_slope(scene, (x, y), (x + 1, y))
                if s <= threshold:
                    edges[_canon((x, y), (x + 1, y))] = s
            if y + 1 < scene.height and free[y + 1, x]:
                s = compute_edge_slope(scene, (x, y), (x, y + 1))
                if s <= threshold:
                    edges[_canon((x, y), (x, y + 1))] = s
    free = _drop_edgeless_cells(free, edges)
    min_slope = min(edges.values()) if edges else 0.0
    return TraversabilityMap(free=free, edge_slopes=edges,
                             slope_bounds=(min_slope, float(threshold)))


def remove_isolated(tmap: TraversabilityMap, depots: list[Cell]) -> TraversabilityMap:
    """Keep only cells connected (via retained edges) to some depot."""
    for d in depots:
        if not tmap.is_free(d):
            raise TerrainError(f"depot {d} is not free in the traversability map")
    adjacency: dict[Cell, list[Cell]] = {}
    for (a, b) in tmap.edge_slopes:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    seen = set(depots)
    queue = deque(depots)
    while queue:
        cell = queue.popleft()
        for nbr in adjacency.get(cell, ()):
            if nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    free = np.zeros_like(tmap.free)
    for (x, y) in seen:
        free[y, x] = True
    edges = {e: s for e, s in tmap.edge_slopes.items() if e[0] in seen and e[1] in seen}
    return TraversabilityMap(free=free, edge_slopes=edges, slope_bounds=tmap.slope_bounds)


def merge_masks(tmap: TraversabilityMap, landclass: np.ndarray) -> TraversabilityMap:
    """Intersect a traversability map with a workable-region mask.

    A cell stays free iff it is free in the map AND workable in the mask.
    Isolation pruning is the caller's job afterwards.
    """
    landclass = np.asarray(landclass, dtype=bool)
    if landclass.shape != tmap.free.shape:
        raise TerrainError("land-class mask dimensions do not match the map")
    free = tmap.free & landclass
    edges = {
        e: s for e, s in tmap.edge_slopes.items()
        if free[e[0][1], e[0][0]] and free[e[1][1], e[1][0]]
    }
    return TraversabilityMap(free=free, edge_slopes=edges, slope_bounds=tmap.slope_bounds)


def build_traversability(scene: Scene, threshold: float = DEFAULT_SLOPE_THRESHOLD) -> TraversabilityMap:
    """Full traversability pipeline: threshold, mask merge, isolation pruning.

    The result is required to be a single depot-connected component;
    scenes whose depots end up in disconnected regions are rejected.
    """
    tmap = steepness_filter(scene, threshold)
    if scene.landclass is not None:
        tmap = merge_masks(tmap, scene.landclass)
    for d in scene.depots:
        if not tmap.is_free(d):
            raise SceneError(f"depot {d} is not traversable after filtering")
    tmap = remove_isolated(tmap, scene.depots[:1])
    if not all(tmap.is_free(d) for d in scene.depots):
        raise SceneError("depots lie in disconnected traversable regions")
    return tmap
