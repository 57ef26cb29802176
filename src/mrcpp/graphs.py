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
from .terrain import TraversabilityMap, _canon

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


def edge_weight(length: float, slope: float, bounds: tuple[float, float],
                config: PlannerConfig) -> float:
    """Weight of an edge of the given length (cells) and slope (degrees)."""
    lo, hi = bounds
    if slope < lo - 1e-9 or slope > hi + 1e-9:
        raise GraphError(f"slope {slope} outside bounds [{lo}, {hi}]")
    normalized = 0.0 if hi <= lo else (slope - lo) / (hi - lo)
    return config.alpha * length + config.beta * normalized


def iter_intact_blocks(tmap: TraversabilityMap):
    """Yield ``(block, internal_slopes)`` for every intact 2x2 block.

    ``internal_slopes`` are the four retained internal edge slopes
    (bottom, top, left, right).
    """
    edges = tmap.edge_slopes
    for by in range(tmap.height // 2):
        for bx in range(tmap.width // 2):
            x, y = 2 * bx, 2 * by
            cells = ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))
            if not all(tmap.is_free(c) for c in cells):
                continue
            internal = (
                _canon((x, y), (x + 1, y)),          # bottom
                _canon((x, y + 1), (x + 1, y + 1)),  # top
                _canon((x, y), (x, y + 1)),          # left
                _canon((x + 1, y), (x + 1, y + 1)),  # right
            )
            if all(e in edges for e in internal):
                yield (bx, by), tuple(edges[e] for e in internal)


@dataclass
class CoveringGraph:
    width: int
    height: int
    cells: list[Cell]                       # row-major order
    index: dict[Cell, int]
    weights: dict[tuple[int, int], float]   # keyed by (min(idx), max(idx))
    _csr: csr_matrix | None = field(default=None, repr=False)
    _sssp_cache: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.cells)

    def has_cell(self, cell: Cell) -> bool:
        return cell in self.index

    def weight(self, a: Cell, b: Cell) -> float:
        i, j = self.index[a], self.index[b]
        return self.weights[(i, j) if i < j else (j, i)]

    def has_edge(self, a: Cell, b: Cell) -> bool:
        i, j = self.index.get(a), self.index.get(b)
        if i is None or j is None:
            return False
        return ((i, j) if i < j else (j, i)) in self.weights

    def _matrix(self) -> csr_matrix:
        if self._csr is None:
            n = len(self.cells)
            rows, cols, data = [], [], []
            for (i, j), w in self.weights.items():
                rows += [i, j]
                cols += [j, i]
                data += [w, w]
            self._csr = csr_matrix((data, (rows, cols)), shape=(n, n))
        return self._csr

    def sssp(self, source: Cell) -> tuple[np.ndarray, np.ndarray]:
        """Single-source shortest-path distances and predecessors (cached)."""
        src = self.index[source]
        if src not in self._sssp_cache:
            dist, pred = dijkstra(self._matrix(), directed=False,
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
    if not tmap.edge_slopes:
        raise GraphError("traversability map has no edges")
    cells = tmap.free_cells()
    index = {c: i for i, c in enumerate(cells)}
    weights: dict[tuple[int, int], float] = {}
    bounds = tmap.slope_bounds

    def add(a: Cell, b: Cell, length: float, slope: float):
        i, j = index[a], index[b]
        key = (i, j) if i < j else (j, i)
        weights[key] = edge_weight(length, slope, bounds, config)

    for (a, b), slope in tmap.edge_slopes.items():
        add(a, b, 1.0, slope)
    # corner-shortcut diagonals inherit the steepest internal edge of
    # their block (a diagonal replaces two of those edges)
    for (bx, by), internal in iter_intact_blocks(tmap):
        x, y = 2 * bx, 2 * by
        slope = max(internal)
        add((x, y), (x + 1, y + 1), SQRT2, slope)
        add((x + 1, y), (x, y + 1), SQRT2, slope)

    for d in map(tuple, depots):
        if d not in index:
            raise GraphError(f"depot {d} is not a free cell of the covering graph")
    return CoveringGraph(width=tmap.width, height=tmap.height, cells=cells,
                         index=index, weights=weights)


@dataclass
class SpanningGraph:
    blocks: list[Block]                       # row-major order
    edges: dict[tuple[Block, Block], float]   # canonical (row-major) key
    adjacency: dict[Block, list[Block]]
    cover_map: dict[Cell, Block]

    def __len__(self) -> int:
        return len(self.blocks)

    def block_cells(self, block: Block) -> list[Cell]:
        x, y = 2 * block[0], 2 * block[1]
        return [(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)]

    def weight(self, a: Block, b: Block) -> float:
        return self.edges[_canon(a, b)]

    def debug_dump(self) -> dict:
        return {
            "nodes": [list(b) for b in self.blocks],
            "edges": [[list(a), list(b), w] for (a, b), w in sorted(self.edges.items())],
        }


def build_spanning_graph(tmap: TraversabilityMap, config: PlannerConfig) -> SpanningGraph:
    """Build H over intact 2x2 blocks; odd trailing rows/columns stay uncovered."""
    intact = dict(iter_intact_blocks(tmap))
    bounds = tmap.slope_bounds
    edges: dict[tuple[Block, Block], float] = {}
    adjacency: dict[Block, list[Block]] = {b: [] for b in intact}
    cov = tmap.edge_slopes

    def crossing(a: Block, b: Block) -> tuple | None:
        # the two parallel covering edges crossing the shared boundary
        if b == (a[0] + 1, a[1]):
            x, y = 2 * a[0] + 1, 2 * a[1]
            pairs = (((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1)))
        elif b == (a[0], a[1] + 1):
            x, y = 2 * a[0], 2 * a[1] + 1
            pairs = (((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1)))
        else:
            return None
        keys = [_canon(*p) for p in pairs]
        if all(k in cov for k in keys):
            return tuple(cov[k] for k in keys)
        return None

    for block in intact:
        for nbr in ((block[0] + 1, block[1]), (block[0], block[1] + 1)):
            if nbr not in intact:
                continue
            slopes = crossing(block, nbr)
            if slopes is None:
                continue
            mean_slope = (slopes[0] + slopes[1]) / 2.0
            edges[_canon(block, nbr)] = edge_weight(2.0, mean_slope, bounds, config)
            adjacency[block].append(nbr)
            adjacency[nbr].append(block)

    blocks = sorted(intact, key=lambda b: (b[1], b[0]))
    for lst in adjacency.values():
        lst.sort(key=lambda b: (b[1], b[0]))
    cover_map = {}
    g = SpanningGraph(blocks=blocks, edges=edges, adjacency=adjacency, cover_map=cover_map)
    for block in blocks:
        for cell in g.block_cells(block):
            cover_map[cell] = block
    return g
