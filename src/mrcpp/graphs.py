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

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .scene import Cell
from .terrain import TraversabilityMap, _canon, component_labels

SQRT2 = math.sqrt(2.0)

Block = tuple[int, int]


class GraphError(ValueError):
    pass


@dataclass
class PlannerConfig:
    """Edge weighting and slope filter parameters for the planning pipeline."""
    alpha: float = 1.0 / 3.0
    beta: float = 2.0 / 3.0
    slope_threshold: float = 25.0

    def __post_init__(self):
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
    width: int
    height: int
    cells: list[Cell]                       # row-major order
    index: dict[Cell, int]
    weights: dict[tuple[int, int], float]   # keyed by (min(idx), max(idx))
    matrix: csr_matrix = field(repr=False)  # symmetric weights, for dijkstra
    _sssp_cache: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.cells)

    def weight(self, a: Cell, b: Cell) -> float:
        i, j = self.index[a], self.index[b]
        return self.weights[(i, j) if i < j else (j, i)]

    def has_edge(self, a: Cell, b: Cell) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        if i is None or j is None:
            return False
        return ((i, j) if i < j else (j, i)) in self.weights

    def sssp(self, source: Cell) -> tuple[np.ndarray, np.ndarray]:
        """Single-source shortest-path distances and predecessors (cached)."""
        src = self.index[source]
        if src not in self._sssp_cache:
            dist, pred = dijkstra(self.matrix, directed=False,
                                  indices=src, return_predecessors=True)
            self._sssp_cache[src] = (dist, pred)
        return self._sssp_cache[src]

    def distance(self, a: Cell, b: Cell) -> float:
        return float(self.sssp(a)[0][self.index[b]])

    def path(self, a: Cell, b: Cell) -> list[Cell]:
        _, pred = self.sssp(a)
        target = self.index[b]
        if a != b and pred[target] < 0:
            raise GraphError(f"no path between {a} and {b}")
        out = [target]
        while out[-1] != self.index[a]:
            out.append(int(pred[out[-1]]))
        return [self.cells[i] for i in reversed(out)]

    def debug_dump(self) -> dict:
        """JSON-friendly dump of nodes and weighted edges."""
        return {
            "nodes": [list(c) for c in self.cells],
            "edges": [
                [list(self.cells[i]), list(self.cells[j]), w]
                for (i, j), w in sorted(self.weights.items())
            ],
        }


def build_covering_graph(tmap: TraversabilityMap, config: PlannerConfig,
                         depots: list[Cell] = ()) -> CoveringGraph:
    """Build G: orthogonal unit edges plus intact-block diagonals."""
    a, b, slopes = tmap.edges()
    if not slopes.size:
        raise GraphError("traversability map has no edges")
    cells = tmap.free_cells()
    n, w = len(cells), tmap.width
    node = np.full(tmap.free.size, -1)
    node[tmap.free.ravel()] = np.arange(n)
    bounds = tmap.slope_bounds
    # corner-shortcut diagonals inherit the steepest internal edge of
    # their block (a diagonal replaces two of those edges)
    intact, internal = intact_blocks(tmap)
    by, bx = np.nonzero(intact)
    diagonal = edge_weight(SQRT2, internal[:, by, bx].max(axis=0), bounds, config)
    sw = 2 * by * w + 2 * bx   # flat index of each block's lower-left cell
    i = node[np.concatenate([a, sw, sw + 1])]
    j = node[np.concatenate([b, sw + w + 1, sw + w])]
    weight = np.concatenate([edge_weight(1.0, slopes, bounds, config), diagonal, diagonal])
    matrix = csr_matrix((np.concatenate([weight, weight]),
                         (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))

    index = {c: k for k, c in enumerate(cells)}
    for d in map(tuple, depots):
        if d not in index:
            raise GraphError(f"depot {d} is not a free cell of the covering graph")
    return CoveringGraph(width=tmap.width, height=tmap.height, cells=cells, index=index,
                         weights=dict(zip(zip(i.tolist(), j.tolist()), weight.tolist())),
                         matrix=matrix)


@dataclass
class SpanningGraph:
    blocks: list[Block]                       # row-major order
    edges: dict[tuple[Block, Block], float]   # canonical (row-major) key
    adjacency: dict[Block, list[Block]]
    cover_map: dict[Cell, Block] = field(init=False, repr=False)

    def __post_init__(self):
        self.cover_map = {cell: b for b in self.blocks for cell in self.block_cells(b)}

    def __len__(self) -> int:
        return len(self.blocks)

    def block_cells(self, block: Block) -> list[Cell]:
        x, y = 2 * block[0], 2 * block[1]
        return [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]

    def weight(self, a: Block, b: Block) -> float:
        return self.edges[_canon(a, b)]

    def components(self) -> list[list[Block]]:
        """Blocks grouped by connected component, each group row-major.

        Larger groups come first; groups of equal size keep the row-major
        order of their first block.
        """
        pos = {b: k for k, b in enumerate(self.blocks)}
        ends = np.array([(pos[a], pos[b]) for a, b in self.edges], dtype=int).reshape(-1, 2)
        groups: dict[int, list[Block]] = {}
        for block, label in zip(self.blocks,
                                component_labels(len(self.blocks), ends[:, 0], ends[:, 1])):
            groups.setdefault(label, []).append(block)
        return sorted(groups.values(), key=len, reverse=True)

    def debug_dump(self) -> dict:
        return {
            "nodes": [list(b) for b in self.blocks],
            "edges": [[list(a), list(b), w] for (a, b), w in sorted(self.edges.items())],
        }


def build_spanning_graph(tmap: TraversabilityMap, config: PlannerConfig) -> SpanningGraph:
    """Build H over intact 2x2 blocks; odd trailing rows/columns stay uncovered."""
    intact, _ = intact_blocks(tmap)
    bh, bw = intact.shape
    edges: dict[tuple[Block, Block], float] = {}
    # a block and its right (upper) neighbour are joined when both are
    # intact and both covering edges crossing their boundary are retained
    for dx, dy, raster in ((1, 0, tmap.slope_x), (0, 1, tmap.slope_y)):
        by, bx = np.nonzero(intact[:bh - dy, :bw - dx] & intact[dy:, dx:])
        y, x = 2 * by + dy, 2 * bx + dx
        s0, s1 = raster[y, x], raster[y + dx, x + dy]
        kept = ~np.isnan(s0) & ~np.isnan(s1)
        mean = (s0[kept] + s1[kept]) / 2.0
        for ax, ay, wt in zip(bx[kept].tolist(), by[kept].tolist(),
                              edge_weight(2.0, mean, tmap.slope_bounds, config).tolist()):
            edges[((ax, ay), (ax + dx, ay + dy))] = wt

    by, bx = np.nonzero(intact)
    blocks = list(zip(bx.tolist(), by.tolist()))   # row-major
    adjacency: dict[Block, list[Block]] = {b: [] for b in blocks}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for lst in adjacency.values():
        lst.sort(key=lambda b: (b[1], b[0]))
    return SpanningGraph(blocks=blocks, edges=edges, adjacency=adjacency)
