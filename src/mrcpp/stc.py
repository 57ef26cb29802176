"""Spanning-tree construction and the single-robot coverage loop.

The coverage loop circumnavigates the minimum spanning tree of the
spanning graph: every intact block contributes its four covering cells,
each visited exactly once, so the loop has exactly ``4 * len(tree)``
nodes.  The loop is the unique cycle in which a cell may step to a
4-neighbour only if the step neither crosses a tree edge nor crosses a
block boundary without one; it is emitted counter-clockwise starting at
the requested cell.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Block, CoveringGraph, SpanningGraph
from .scene import Cell
from .terrain import _canon


class StcError(ValueError):
    pass


@dataclass
class SpanningTree:
    root: Block
    parent: dict[Block, Block | None]
    children: dict[Block, list[Block]]
    edges: set[tuple[Block, Block]]   # canonical keys
    total_weight: float

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def nodes(self) -> list[Block]:
        return sorted(self.parent, key=lambda b: (b[1], b[0]))

    def has_edge(self, a: Block, b: Block) -> bool:
        return _canon(a, b) in self.edges


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def minimum_spanning_tree(h: SpanningGraph, root: Block) -> SpanningTree:
    """Kruskal MST of H rooted at ``root``; ties broken row-major."""
    if root not in h.adjacency:
        raise StcError(f"root block {root} is not a spanning node")
    uf = _UnionFind(h.blocks)
    chosen: set[tuple[Block, Block]] = set()
    total = 0.0
    ranked = sorted(h.edges.items(), key=lambda kv: (kv[1], kv[0][0][1], kv[0][0][0],
                                                     kv[0][1][1], kv[0][1][0]))
    for (a, b), w in ranked:
        if uf.union(a, b):
            chosen.add((a, b))
            total += w
    if len(chosen) != len(h.blocks) - 1:
        raise StcError("spanning graph is disconnected")

    adjacency: dict[Block, list[Block]] = {b: [] for b in h.blocks}
    for a, b in chosen:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent: dict[Block, Block | None] = {root: None}
    children: dict[Block, list[Block]] = {b: [] for b in h.blocks}
    stack = [root]
    while stack:
        node = stack.pop()
        for nbr in sorted(adjacency[node], key=lambda b: (b[1], b[0])):
            if nbr not in parent:
                parent[nbr] = node
                children[node].append(nbr)
                stack.append(nbr)
    return SpanningTree(root=root, parent=parent, children=children,
                        edges=chosen, total_weight=total)


@dataclass
class CoverageLoop:
    nodes: list[Cell]          # cyclic order, nodes[0] is the start cell
    edge_weights: list[float]  # weight of hop i -> i+1 (cyclic)
    total_weight: float
    _positions: dict[Cell, int] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def position(self, cell: Cell) -> int:
        if self._positions is None:
            self._positions = {c: i for i, c in enumerate(self.nodes)}
        return self._positions[cell]

    def contains(self, cell: Cell) -> bool:
        if self._positions is None:
            self._positions = {c: i for i, c in enumerate(self.nodes)}
        return cell in self._positions


def _loop_successors(tree: SpanningTree) -> dict[Cell, list[Cell]]:
    """Legal circumnavigation moves; every covered cell gets exactly two."""
    covered: dict[Cell, Block] = {}
    for block in tree.parent:
        x, y = 2 * block[0], 2 * block[1]
        for cell in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
            covered[cell] = block

    def step_allowed(u: Cell, v: Cell) -> bool:
        bu, bv = covered[u], covered[v]
        if bu != bv:
            return tree.has_edge(bu, bv)
        # internal step: blocked when the tree edge on that side of the
        # block separates the two cells
        bx, by = bu
        if u[1] == v[1]:  # horizontal pair
            side = (bx, by - 1) if u[1] == 2 * by else (bx, by + 1)
        else:             # vertical pair
            side = (bx - 1, by) if u[0] == 2 * bx else (bx + 1, by)
        return not (side in tree.parent and tree.has_edge(bu, side))

    successors: dict[Cell, list[Cell]] = {}
    for cell in covered:
        nbrs = []
        for dx, dy in ((0, 1), (-1, 0), (0, -1), (1, 0)):
            other = (cell[0] + dx, cell[1] + dy)
            if other in covered and step_allowed(cell, other):
                nbrs.append(other)
        if len(nbrs) != 2:
            raise StcError(f"cell {cell} has {len(nbrs)} circumnavigation moves")
        successors[cell] = sorted(nbrs, key=lambda c: (c[1], c[0]))
    return successors


def spiral_stc_loop(g: CoveringGraph, tree: SpanningTree, start: Cell) -> CoverageLoop:
    """Closed coverage loop around the tree, counter-clockwise from ``start``."""
    successors = _loop_successors(tree)
    if start not in successors:
        raise StcError(f"start cell {start} is not covered by the spanning tree")
    cycle = [start]
    prev = None
    while True:
        here = cycle[-1]
        nxt = next(c for c in successors[here] if c != prev)
        if nxt == start:
            break
        prev = here
        cycle.append(nxt)
    if len(cycle) != 4 * len(tree):
        raise StcError(
            f"circumnavigation covered {len(cycle)} of {4 * len(tree)} cells"
        )
    # orient counter-clockwise (positive signed area over cell centers)
    area = 0.0
    for i, (x, y) in enumerate(cycle):
        nx, ny = cycle[(i + 1) % len(cycle)]
        area += x * ny - nx * y
    if area < 0:
        cycle = [cycle[0]] + cycle[:0:-1]

    hop_weights = []
    for i, cell in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        if not g.has_edge(cell, nxt):
            raise StcError(f"loop hop {cell} -> {nxt} is not a covering-graph edge")
        hop_weights.append(g.weight(cell, nxt))
    return CoverageLoop(nodes=cycle, edge_weights=hop_weights,
                        total_weight=sum(hop_weights))
