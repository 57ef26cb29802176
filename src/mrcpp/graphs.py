"""Weighted covering and spanning graphs over a traversability map.

The covering graph G holds the cells a robot physically services:
orthogonal edges of length 1 plus corner-shortcut diagonals (length
sqrt(2)) inside each intact 2x2 block.  The spanning graph H has one node
per intact 2x2 block of covering cells and edges of length 2 between
adjacent blocks whose boundary is traversable in both lanes.

An *intact* block has all four covering cells free and all four internal
edges retained by the slope filter; only intact blocks can be wrapped by
a coverage loop, so partially intact blocks produce no spanning node.

Every edge weight is ``alpha * length + beta * normalized_slope`` where
the slope is normalized against the retained-slope bounds of the map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, triu
from scipy.sparse.csgraph import dijkstra

from .scene import Cell
from .terrain import (DEFAULT_SLOPE_THRESHOLD, TraversabilityMap, component_labels, edge_dict,
                      grid_edges)

SQRT2 = math.sqrt(2.0)

# ``paths_from`` walks this many cells' paths at a time, which bounds its
# (cells, depth) arrays
PATHS_CHUNK = 256

Block = tuple[int, int]


class GraphError(ValueError):
    pass


@dataclass
class PlannerConfig:
    """Edge weighting and slope filter parameters for the planning pipeline."""
    alpha: float = 1.0 / 3.0
    beta: float = 2.0 / 3.0
    slope_threshold: float = DEFAULT_SLOPE_THRESHOLD

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise GraphError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise GraphError("need alpha >= 0, beta >= 0, alpha + beta > 0")


def edge_weight(length: float, slope, bounds: tuple[float, float],
                config: PlannerConfig) -> float | np.ndarray:
    """Weight of edges of the given length (cells) and slope (degrees): a number or an array."""
    lo, hi = bounds
    slope = np.asarray(slope, dtype=float)
    outside = (slope < lo - 1e-9) | (slope > hi + 1e-9)
    if outside.any():
        raise GraphError(f"slope {slope[outside][0]} outside bounds [{lo}, {hi}]")
    normalized = np.zeros_like(slope) if hi <= lo else (slope - lo) / (hi - lo)
    return config.alpha * length + config.beta * normalized


def intact_blocks(tmap: TraversabilityMap) -> tuple[np.ndarray, np.ndarray]:
    """Intact-block mask ``[by, bx]`` and each block's internal slopes ``[:, by, bx]``
    (bottom, top, left, right)."""
    h, w = 2 * (tmap.height // 2), 2 * (tmap.width // 2)
    internal = np.stack([tmap.slope_x[0:h:2, 0:w:2],   # bottom
                         tmap.slope_x[1:h:2, 0:w:2],   # top
                         tmap.slope_y[0:h:2, 0:w:2],   # left
                         tmap.slope_y[0:h:2, 1:w:2]])  # right
    return ~np.isnan(internal).any(axis=0), internal


@dataclass
class CoveringGraph:
    node: np.ndarray    # int [y, x]: a free cell's row-major node index, -1 elsewhere
    # weights, nan where there is no edge: [0, y, x] is edge (x, y)-(x+1, y), [1, y, x]
    # edge (x, y)-(x, y+1), [2, y, x] both diagonals of the intact block at lower-left (x, y)
    steps: np.ndarray   # shape (3, height, width)
    matrix: csr_matrix = field(repr=False)  # symmetric weights, for dijkstra
    _sssp_cache: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _xy(self) -> np.ndarray:   # (nodes, 2) int32: each node's cell [x, y]
        y, x = np.nonzero(self.node >= 0)
        return np.stack((x, y), axis=1).astype(np.int32)

    @property
    def cells(self) -> list[Cell]:
        """Nodes in row-major order; this view and the two below are rebuilt on each access."""
        x, y = self._xy.T.tolist()
        return list(zip(x, y))

    @property
    def index(self) -> dict[Cell, int]:
        return {c: k for k, c in enumerate(self.cells)}

    @property
    def weights(self) -> dict[tuple[int, int], float]:   # keyed by node indices i < j
        upper = triu(self.matrix, k=1, format="coo")
        return dict(zip(zip(upper.row.tolist(), upper.col.tolist()), upper.data.tolist()))

    def hop_weights(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Weights of the hops between consecutive cells ``(x[i], y[i])``: nan where two
        are not joined by an edge, a cell off the grid included."""
        h, w = self.node.shape
        dx, dy, on = x[1:] - x[:-1], y[1:] - y[:-1], (x >= 0) & (x < w) & (y >= 0) & (y < h)
        edge = on[:-1] & on[1:] & (np.maximum(abs(dx), abs(dy)) == 1)   # 8-neighbours
        kind = (dy != 0) * (1 + (dx != 0))   # 0 along x, 1 along y, 2 diagonal
        # % keeps the lower-left corner on the grid; it is read only where edge holds
        lx, ly = np.minimum(x[:-1], x[1:]) % w, np.minimum(y[:-1], y[1:]) % h
        return np.where(edge, self.steps[kind, ly, lx], np.nan)

    def node_of(self, cell: Cell) -> int:
        (h, w), (x, y) = self.node.shape, cell
        if not (0 <= x < w and 0 <= y < h and self.node[y, x] >= 0):
            raise GraphError(f"cell {cell} is not a node of the covering graph")
        return int(self.node[y, x])

    def solve(self, sources: list[Cell]) -> None:
        """Cache the shortest-path distances and predecessors from every
        source not cached yet, all from one Dijkstra call."""
        todo = [src for src in dict.fromkeys(map(self.node_of, sources))
                if src not in self._sssp_cache]
        if todo:
            # the matrix holds each edge in both directions, so the directed
            # search reads it as it is, with no transpose
            dist, pred = dijkstra(self.matrix, directed=True,
                                  indices=todo, return_predecessors=True)
            self._sssp_cache.update(zip(todo, zip(dist, pred)))

    def sssp(self, source: Cell) -> tuple[np.ndarray, np.ndarray]:
        """Single-source shortest-path distances and predecessors (cached)."""
        src = self.node_of(source)
        if src not in self._sssp_cache:
            self.solve([source])
        return self._sssp_cache[src]

    def distance(self, a: Cell, b: Cell) -> float:
        return float(self.sssp(a)[0][self.node_of(b)])

    def path(self, a: Cell, b: Cell) -> np.ndarray:
        return self.paths_from(a, np.array([b[0]]), np.array([b[1]]))[1][0]

    def paths_from(self, source: Cell, x: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Distances from ``source`` to the cells ``(x[i], y[i])``, as
        ``distance`` gives them, and their paths from ``source``, from one
        walk up the source's predecessor tree for all the cells at once;
        ``path`` is the walk for one cell.

        Each path is a read-only (m, 2) int32 array of cells ``[x, y]``, a
        row slice of one array that holds them all.
        """
        dist, pred = self.sssp(source)
        src, (h, w) = self.node_of(source), self.node.shape
        nodes = np.where((x >= 0) & (x < w) & (y >= 0) & (y < h), self.node[y % h, x % w], -1)
        if (nodes < 0).any():
            bad = int(np.flatnonzero(nodes < 0)[0])
            raise GraphError(f"cell {(int(x[bad]), int(y[bad]))} is not a node "
                             "of the covering graph")
        unreachable = np.isinf(dist[nodes])
        if unreachable.any():
            bad = int(np.flatnonzero(unreachable)[0])
            raise GraphError(f"no path between {source} and {(int(x[bad]), int(y[bad]))}")
        up = pred.copy()
        up[src] = src   # a walk that reaches the source stays there
        # each list starts empty, so that no cells give no paths
        walked, lengths = [np.empty(0, up.dtype)], [np.empty(0, np.int64)]
        for begin in range(0, nodes.size, PATHS_CHUNK):
            # column s holds each cell's ancestor s steps up, then the source
            walk = [nodes[begin:begin + PATHS_CHUNK].astype(up.dtype)]
            while (walk[-1] != src).any():
                walk.append(up[walk[-1]])
            rows = np.stack(walk, axis=1)[:, ::-1]   # source first, padded with it in front
            steps = (rows != src).sum(axis=1)
            keep = np.arange(rows.shape[1]) >= rows.shape[1] - 1 - steps[:, None]
            walked.append(rows[keep])
            lengths.append(steps + 1)
        cells = self._xy[np.concatenate(walked)]
        cells.flags.writeable = False   # and so is every slice of it
        ends = np.cumsum(np.concatenate(lengths)).tolist()
        return dist[nodes], [cells[a:b] for a, b in zip([0] + ends[:-1], ends)]


def build_covering_graph(tmap: TraversabilityMap, config: PlannerConfig) -> CoveringGraph:
    """Build G: orthogonal unit edges plus intact-block diagonals."""
    a, b, slopes = grid_edges(tmap.slope_x, tmap.slope_y)
    if not slopes.size:
        raise GraphError("traversability map has no edges")
    (h, w), free = tmap.free.shape, tmap.free.ravel()
    node, n = np.where(free, np.cumsum(free) - 1, -1), int(np.count_nonzero(free))
    bounds = tmap.slope_bounds
    # corner-shortcut diagonals inherit the steepest internal edge of
    # their block (a diagonal replaces two of those edges)
    intact, internal = intact_blocks(tmap)
    by, bx = np.nonzero(intact)
    diagonal = edge_weight(SQRT2, internal[:, by, bx].max(axis=0), bounds, config)
    unit = edge_weight(1.0, slopes, bounds, config)
    sw = 2 * by * w + 2 * bx   # flat index of each block's lower-left cell
    steps = np.full((3, h * w), np.nan)
    steps[(b - a == w).astype(np.int64), a] = unit   # an edge along y joins a to a + w
    steps[2, sw] = diagonal
    i = node[np.concatenate([a, sw, sw + 1])]
    j = node[np.concatenate([b, sw + w + 1, sw + w])]
    weight = np.concatenate([unit, diagonal, diagonal])
    matrix = csr_matrix((np.concatenate([weight, weight]),
                         (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    return CoveringGraph(node.reshape(h, w), steps.reshape(3, h, w), matrix)


@dataclass
class SpanningGraph:
    """H over the block grid: spanning nodes where ``intact``, edge weights in two
    rasters laid out like the traversability map's slopes, nan where there is no edge."""
    intact: np.ndarray   # bool [by, bx]
    east: np.ndarray     # [y, x]: edge (x, y)-(x+1, y); shape (bh, bw - 1)
    north: np.ndarray    # [y, x]: edge (x, y)-(x, y+1); shape (bh - 1, bw)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.intact))

    @property
    def blocks(self) -> list[Block]:
        """Spanning nodes in row-major order, rebuilt from the raster on each access."""
        by, bx = np.nonzero(self.intact)
        return list(zip(bx.tolist(), by.tolist()))

    @property
    def edges(self) -> dict[tuple[Block, Block], float]:
        """Edges keyed by their row-major ends, rebuilt from the rasters on each access."""
        return edge_dict(self.east, self.north)

    def block_of(self, cell: Cell) -> Block | None:
        """The spanning node whose four cells include ``cell``, or None."""
        (bh, bw), bx, by = self.intact.shape, cell[0] // 2, cell[1] // 2
        return (bx, by) if 0 <= bx < bw and 0 <= by < bh and self.intact[by, bx] else None

    def labels(self) -> np.ndarray:
        """Component label of every block ``[by, bx]``, from 1; one not intact has 0."""
        return component_labels(self.intact, self.east, self.north)

    def component(self, block: Block) -> SpanningGraph:
        """H masked to the connected component that holds ``block``, if it is a spanning node."""
        (bh, bw), (x, y), labels = self.intact.shape, block, self.labels()
        keep = self.intact & (labels == (labels[y, x] if 0 <= x < bw and 0 <= y < bh else 0))
        return SpanningGraph(keep, np.where(keep[:, :-1], self.east, np.nan),
                             np.where(keep[:-1, :], self.north, np.nan))


def build_spanning_graph(tmap: TraversabilityMap, config: PlannerConfig) -> SpanningGraph:
    """Build H over intact 2x2 blocks; odd trailing rows/columns stay uncovered."""
    intact, _ = intact_blocks(tmap)
    bh, bw = intact.shape
    rasters = []
    # a block and its east (north) neighbour are joined when both are
    # intact and both covering edges crossing their boundary are retained
    for dx, dy, raster in ((1, 0, tmap.slope_x), (0, 1, tmap.slope_y)):
        joined = intact[:bh - dy, :bw - dx] & intact[dy:, dx:]
        by, bx = np.indices(joined.shape)
        y, x = 2 * by + dy, 2 * bx + dx
        mean = (raster[y, x] + raster[y + dx, x + dy]) / 2.0
        kept = joined & ~np.isnan(mean)
        weight = np.full(joined.shape, np.nan)
        weight[kept] = edge_weight(2.0, mean[kept], tmap.slope_bounds, config)
        rasters.append(weight)
    return SpanningGraph(intact, *rasters)
