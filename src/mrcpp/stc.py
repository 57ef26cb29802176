"""Spanning-tree construction and the single-robot coverage loop.

The coverage loop circumnavigates the minimum spanning tree of the
spanning graph: every intact block contributes its four covering cells,
each visited exactly once, so the loop has exactly ``4 * len(tree)``
nodes.  It keeps the tree on its left, so it runs counter-clockwise, and
starts at the requested cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array, csr_matrix
from scipy.sparse.csgraph import depth_first_order, minimum_spanning_tree as _scipy_mst

from .graphs import Block, CoveringGraph, SpanningGraph
from .scene import Cell
from .terrain import grid_edges


class StcError(ValueError):
    pass


@dataclass
class SpanningTree(SpanningGraph):
    """A spanning tree in H's form: the blocks it spans, and its edges' weights in
    ``east`` and ``north``, nan where the tree has no edge."""
    total_weight: float


def minimum_spanning_tree(h: SpanningGraph, root: Block) -> SpanningTree:
    """Kruskal MST of H, which must be connected and hold ``root``; ties broken row-major.

    Edges are ranked in Kruskal's order (weight, then the row-major keys of
    both ends); the MST over distinct ranks is unique, so any MST solver
    fed the ranks returns Kruskal's tree.
    """
    (bh, bw), (rx, ry) = h.intact.shape, root
    if not (0 <= rx < bw and 0 <= ry < bh and h.intact[ry, rx]):
        raise StcError(f"root block {root} is not a spanning node")
    a, b, weights = grid_edges(h.east, h.north)   # row-major flat block indices
    order = np.lexsort((b, a, weights))
    rank = np.empty(weights.size)
    rank[order] = np.arange(1, weights.size + 1)   # 0 would read as "no edge"
    mst = _scipy_mst(csr_matrix((rank, (a, b)), shape=(h.intact.size,) * 2))
    if mst.nnz != len(h) - 1:
        raise StcError("spanning graph is disconnected")
    chosen = order[np.sort(mst.data).astype(np.int64) - 1]
    a, b, w = a[chosen], b[chosen], weights[chosen]
    total = float(np.cumsum(w)[-1]) if w.size else 0.0
    # an edge is along x when both ends share a block row (when H is one
    # block wide, b - a == 1 holds for edges along y)
    y, x = np.divmod(a, bw)
    along_x = b // bw == y
    east, north = np.full(h.east.shape, np.nan), np.full(h.north.shape, np.nan)
    east[y[along_x], x[along_x]] = w[along_x]
    north[y[~along_x], x[~along_x]] = w[~along_x]
    return SpanningTree(h.intact, east, north, total)


@dataclass
class CoverageLoop:
    """Cells ``(x[p], y[p])`` in cyclic order from the start cell at p = 0;
    ``edge_weights[p]`` is the hop from position p to p + 1, the last one
    closing the cycle, and ``total_weight`` their sequential sum."""
    x: np.ndarray
    y: np.ndarray
    edge_weights: np.ndarray
    total_weight: float

    def __len__(self) -> int:
        return len(self.x)

    @cached_property
    def nodes(self) -> list[Cell]:
        """The cells as tuples in loop order, built on first access."""
        return list(zip(self.x.tolist(), self.y.tolist()))

    def position(self, cell: Cell) -> int:
        """Loop position of ``cell``, -1 when the loop does not visit it."""
        hit = np.flatnonzero((self.x == cell[0]) & (self.y == cell[1]))
        return int(hit[0]) if hit.size else -1


def spiral_stc_loop(g: CoveringGraph, tree: SpanningTree, start: Cell) -> CoverageLoop:
    """Closed coverage loop around the tree, counter-clockwise from ``start``.

    Each cell is one quadrant of its block and steps to the next quadrant
    counter-clockwise, unless a tree edge leaves the block on the side it
    would walk along: then it crosses that edge instead.
    """
    n, (bh, bw) = len(tree), tree.intact.shape
    by, bx = np.nonzero(tree.intact)
    # tree edges to the east / north of block (x, y) at [y + 1, x + 1]
    east, north = np.pad(~np.isnan(tree.east), 1), np.pad(~np.isnan(tree.north), 1)
    width = 2 * bw   # cells are flat row-major indices over the covered grid
    corner = 2 * by * width + 2 * bx   # bottom-left quadrant of each block
    # per quadrant: (its cells, tree edge on the side it walks along, step
    # across that edge, step along the block): bottom-left down or right,
    # bottom-right right or up, top-right up or left, top-left left or down
    rules = (
        (corner, north[by, bx + 1], -width, 1),
        (corner + 1, east[by + 1, bx + 1], 1, width),
        (corner + width + 1, north[by + 1, bx + 1], width, -1),
        (corner + width, east[by + 1, bx], -1, -width),
    )
    succ = np.full(width * 2 * bh, -1, dtype=np.int32)   # int32 spares the CSR a cast
    for here, crossing, across, around in rules:
        succ[here] = here + np.where(crossing, across, around)

    sx, sy = start
    first = sy * width + sx
    if not (0 <= sx < width and 0 <= sy < 2 * bh and succ[first] >= 0):
        raise StcError(f"start cell {start} is not covered by the spanning tree")
    # each covered cell has one successor, so the depth-first order from
    # ``first`` is the walk along ``succ`` until it meets a visited cell
    covered = succ >= 0
    indptr = np.cumsum(np.r_[False, covered], dtype=np.int32)
    steps = csr_array((np.ones(4 * n), succ[covered], indptr), shape=(succ.size,) * 2)
    order = depth_first_order(steps, first, return_predecessors=False)
    if order.size != 4 * n or succ[order[-1]] != first:
        raise StcError(f"circumnavigation covered {order.size} of {4 * n} cells")

    y, x = np.divmod(np.append(order, first), width)   # close the cycle
    hops = g.hop_weights(x, y)
    if np.isnan(hops).any():
        i = int(np.isnan(hops).argmax())
        raise StcError(f"loop hop ({x[i]}, {y[i]}) -> ({x[i + 1]}, {y[i + 1]}) "
                       "is not a covering-graph edge")
    return CoverageLoop(x[:-1], y[:-1], hops, float(np.cumsum(hops)[-1]))
