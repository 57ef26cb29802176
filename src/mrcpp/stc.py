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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree as _scipy_mst

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
    nodes: list[Cell]          # cyclic order, nodes[0] is the start cell
    edge_weights: list[float]  # weight of hop i -> i+1 (cyclic)
    total_weight: float

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def _index(self) -> dict[Cell, int]:
        return {c: i for i, c in enumerate(self.nodes)}

    def position(self, cell: Cell) -> int:
        return self._index[cell]

    def contains(self, cell: Cell) -> bool:
        return cell in self._index


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
    succ = np.full(width * 2 * bh, -1)
    for here, crossing, across, around in rules:
        succ[here] = here + np.where(crossing, across, around)

    sx, sy = start
    first = sy * width + sx
    if not (0 <= sx < width and 0 <= sy < 2 * bh and succ[first] >= 0):
        raise StcError(f"start cell {start} is not covered by the spanning tree")
    succ = succ.tolist()
    order = [first]
    here = succ[first]
    while here != first and len(order) < 4 * n:
        order.append(here)
        here = succ[here]
    if here != first or len(order) != 4 * n:
        raise StcError(f"circumnavigation covered {len(order)} of {4 * n} cells")

    order.append(first)   # close the cycle
    y, x = np.divmod(np.array(order), width)
    hops = g.hop_weights(x, y)
    nodes = list(zip(x.tolist(), y.tolist()))
    if np.isnan(hops).any():
        i = int(np.isnan(hops).argmax())
        raise StcError(f"loop hop {nodes[i]} -> {nodes[i + 1]} is not a covering-graph edge")
    nodes.pop()
    hops = hops.tolist()
    return CoverageLoop(nodes=nodes, edge_weights=hops, total_weight=sum(hops))
