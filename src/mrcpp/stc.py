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
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree as _scipy_mst

from .graphs import Block, CoveringGraph, SpanningGraph, _rows
from .scene import Cell
from .terrain import _canon, grid_edges


class StcError(ValueError):
    pass


@dataclass
class SpanningTree:
    root: Block
    blocks: list[Block]               # every block the tree spans
    edges: set[tuple[Block, Block]]   # canonical keys
    total_weight: float

    def __len__(self) -> int:
        return len(self.blocks)

    def has_edge(self, a: Block, b: Block) -> bool:
        return _canon(a, b) in self.edges


def minimum_spanning_tree(h: SpanningGraph, root: Block) -> SpanningTree:
    """Kruskal MST of H rooted at ``root``; ties broken row-major.

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
    total = float(np.cumsum(weights[chosen])[-1]) if chosen.size else 0.0
    a, b = a[chosen], b[chosen]
    edges = zip(zip((a % bw).tolist(), (a // bw).tolist()),
                zip((b % bw).tolist(), (b // bw).tolist()))
    return SpanningTree(root=root, blocks=h.blocks, edges=set(edges), total_weight=total)


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
    n = len(tree)
    bx, by = _rows(tree.blocks, 2).T
    bw, bh = int(bx.max()) + 1, int(by.max()) + 1
    # tree edges to the east / north of block (x, y) at [y + 1, x + 1]
    east = np.zeros((bh + 2, bw + 2), dtype=bool)
    north = np.zeros((bh + 2, bw + 2), dtype=bool)
    if tree.edges:
        ex, ey, _, fy = _rows(chain.from_iterable(tree.edges), 4).T
        horizontal = fy == ey
        east[ey[horizontal] + 1, ex[horizontal] + 1] = True
        north[ey[~horizontal] + 1, ex[~horizontal] + 1] = True
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

    cycle = [(c % width, c // width) for c in order]
    closed = cycle + cycle[:1]
    hops = g.hop_weights(closed)
    if np.isnan(hops).any():
        i = int(np.isnan(hops).argmax())
        raise StcError(f"loop hop {closed[i]} -> {closed[i + 1]} is not a covering-graph edge")
    hops = hops.tolist()
    return CoverageLoop(nodes=cycle, edge_weights=hops, total_weight=sum(hops))
