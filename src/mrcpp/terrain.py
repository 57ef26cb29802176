"""Traversability analysis: slope thresholding, masking, isolation pruning.

The output of this module is a :class:`TraversabilityMap`: the free-cell
raster together with the slope (degrees) of every retained 4-connected
edge and the slope bounds used later for weight normalization.  The upper
bound is always the filter threshold; the lower bound is the minimum
retained slope.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .scene import Cell, Scene, SceneError

Edge = tuple[Cell, Cell]

DEFAULT_SLOPE_THRESHOLD = 25.0


class TerrainError(ValueError):
    """Raised when traversability inputs are inconsistent."""


def grid_edges(along_x: np.ndarray, along_y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Edges held as rasters ``[y, x]`` of (x, y)-(x+1, y) and (x, y)-(x, y+1), nan
    for none: row-major flat node indices ``a < b`` and values, x edges first."""
    shape = along_x.shape[0], along_y.shape[1]
    ids = np.arange(shape[0] * shape[1]).reshape(shape)
    kx, ky = ~np.isnan(along_x), ~np.isnan(along_y)
    return (np.concatenate([ids[:, :-1][kx], ids[:-1, :][ky]]),
            np.concatenate([ids[:, 1:][kx], ids[1:, :][ky]]),
            np.concatenate([along_x[kx], along_y[ky]]))


def edge_dict(along_x: np.ndarray, along_y: np.ndarray) -> dict[Edge, float]:
    """The edges of :func:`grid_edges`, in its order, keyed by their ends, row-major
    smaller end first."""
    a, b, values = grid_edges(along_x, along_y)
    w = along_y.shape[1]
    return {((i % w, i // w), (j % w, j // w)): v
            for i, j, v in zip(a.tolist(), b.tolist(), values.tolist())}


@dataclass
class TraversabilityMap:
    """Free cells and retained edge slopes (degrees); a dropped edge is nan.

    An edge is retained only between two free cells.
    """
    free: np.ndarray       # bool, shape (height, width)
    slope_x: np.ndarray    # [y, x]: edge (x, y)-(x+1, y); shape (height, width - 1)
    slope_y: np.ndarray    # [y, x]: edge (x, y)-(x, y+1); shape (height - 1, width)
    slope_bounds: tuple[float, float]  # (min retained slope, threshold)

    @property
    def width(self) -> int:
        return self.free.shape[1]

    @property
    def height(self) -> int:
        return self.free.shape[0]

    @property
    def edge_slopes(self) -> dict[Edge, float]:
        """Retained edges keyed by their ends, row-major smaller end first, rebuilt from
        the rasters on each access."""
        return edge_dict(self.slope_x, self.slope_y)

    def is_free(self, cell: Cell) -> bool:
        x, y = cell
        return bool(self.free[y, x])


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


# math.atan2 elementwise: np.arctan2 may differ from it in the last bit,
# and compute_edge_slope is the reference every edge must equal
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _free_edges(free: np.ndarray, slope_x: np.ndarray,
                slope_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slope rasters with every edge not between two free cells dropped."""
    return (np.where(free[:, :-1] & free[:, 1:], slope_x, np.nan),
            np.where(free[:-1, :] & free[1:, :], slope_y, np.nan))


def component_labels(n: int, rows, cols) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by edges rows[k]-cols[k]."""
    adjacency = coo_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def steepness_filter(scene: Scene, threshold: float = DEFAULT_SLOPE_THRESHOLD) -> TraversabilityMap:
    """Build the steepness traversability map for a scene.

    Edges steeper than ``threshold`` degrees are removed; cells left with
    no incident edge become non-free.  The retained slope bounds are
    ``(min retained slope, threshold)``.
    """
    if not threshold > 0:   # nan included
        raise TerrainError("slope threshold must be positive")
    elevation = (np.zeros(scene.blocked.shape) if scene.elevation is None
                 else np.asarray(scene.elevation, dtype=float))
    slopes = []
    for axis in (1, 0):  # slope_x, then slope_y
        rise = np.abs(np.diff(elevation, axis=axis))
        s = np.degrees(_atan2(rise, scene.cell_size).astype(float))
        slopes.append(np.where(s <= threshold, s, np.nan))
    free = ~scene.blocked
    tmap = TraversabilityMap(free, *_free_edges(free, *slopes),
                             slope_bounds=(0.0, float(threshold)))
    a, b, retained = grid_edges(tmap.slope_x, tmap.slope_y)
    has_edge = np.zeros(free.size, dtype=bool)
    has_edge[a] = has_edge[b] = True
    tmap.free = free & has_edge.reshape(free.shape)
    if retained.size:
        tmap.slope_bounds = (float(retained.min()), float(threshold))
    return tmap


def remove_isolated(tmap: TraversabilityMap, depots: list[Cell]) -> TraversabilityMap:
    """Keep only cells connected (via retained edges) to some depot."""
    for d in depots:
        if not tmap.is_free(d):
            raise TerrainError(f"depot {d} is not free in the traversability map")
    a, b, _ = grid_edges(tmap.slope_x, tmap.slope_y)
    labels = component_labels(tmap.free.size, a, b).reshape(tmap.free.shape)
    free = np.isin(labels, [labels[y, x] for x, y in depots])
    return TraversabilityMap(free, *_free_edges(free, tmap.slope_x, tmap.slope_y),
                             slope_bounds=tmap.slope_bounds)


def merge_masks(tmap: TraversabilityMap, landclass: np.ndarray) -> TraversabilityMap:
    """Intersect a traversability map with a workable-region mask.

    A cell stays free iff it is free in the map AND workable in the mask.
    Isolation pruning is the caller's job afterwards.
    """
    landclass = np.asarray(landclass, dtype=bool)
    if landclass.shape != tmap.free.shape:
        raise TerrainError("land-class mask dimensions do not match the map")
    free = tmap.free & landclass
    return TraversabilityMap(free, *_free_edges(free, tmap.slope_x, tmap.slope_y),
                             slope_bounds=tmap.slope_bounds)


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
