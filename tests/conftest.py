"""Shared fixtures and instance builders for the test suite."""
from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np
import pytest

from mrcpp.graphs import CoveringGraph, GraphError, SpanningGraph, edge_weight
from mrcpp.partition import LoopCostModel, PartitionSet, _chain_directions, build_robot_plan
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene
from mrcpp.scenegen import generate_scene
from mrcpp.stc import SpanningTree


def flat_scene(width: int, height: int, depots, blocked_cells=()) -> Scene:
    """Flat (zero-slope) scene with the given blocked cells."""
    blocked = np.zeros((height, width), dtype=bool)
    for (x, y) in blocked_cells:
        blocked[y, x] = True
    return Scene(width=width, height=height, depots=list(depots), blocked=blocked)


def ramp_scene(width: int, height: int, depots, slope_per_cell: float = 0.2) -> Scene:
    """Elevation increasing along x: gentle uniform slope."""
    elev = np.tile(np.arange(width, dtype=float) * slope_per_cell, (height, 1))
    return Scene(width=width, height=height, depots=list(depots), elevation=elev)


def free_cells(tmap) -> list:
    """The free cells of a traversability map, row-major."""
    ys, xs = np.nonzero(tmap.free)
    return list(zip(xs.tolist(), ys.tolist()))


def shortest_path(g: CoveringGraph, start, goal) -> tuple[list, float]:
    """Minimum-weight path in G with deterministic (row-major id) tie-breaking.

    A heap Dijkstra over adjacency lists built from ``g.weights``: the
    oracle the tests hold ``CoveringGraph.sssp`` and the plan costs to.
    """
    if start not in g.index or goal not in g.index:
        raise GraphError("shortest_path endpoints must be graph nodes")
    src, dst = g.index[start], g.index[goal]
    if src == dst:
        return [start], 0.0
    adjacency: list[list[tuple[int, float]]] = [[] for _ in g.cells]
    for (i, j), w in g.weights.items():
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    for lst in adjacency:
        lst.sort()
    dist = {src: 0.0}
    pred: dict[int, int] = {}
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == dst:
            break
        done.add(node)
        for nbr, w in adjacency[node]:
            nd = d + w
            if nd < dist.get(nbr, math.inf) - 1e-15:
                dist[nbr] = nd
                pred[nbr] = node
                heapq.heappush(heap, (nd, nbr))
    if dst not in dist:
        raise GraphError(f"nodes {start} and {goal} are not connected")
    path = [dst]
    while path[-1] != src:
        path.append(pred[path[-1]])
    return [g.cells[i] for i in reversed(path)], dist[dst]


def scalar_weight(length, slope, bounds, config) -> float:
    """``edge_weight`` of one edge by the scalar formula."""
    lo, hi = bounds
    return config.alpha * length + config.beta * (0.0 if hi <= lo else (slope - lo) / (hi - lo))


def scan_covering_graph(slopes: dict, bounds, config) -> dict:
    """G's weighted edges keyed by their cells, row-major first, by a scan of
    every retained edge and every 2x2 block: the oracle ``build_covering_graph``
    and its lookups are held to.

    ``slopes`` are the retained edges between free cells.  Each weighs the
    scalar formula at length 1; a block whose four internal edges are all
    retained adds both its diagonals, length sqrt(2), at the steepest of them.
    """
    edges = {e: scalar_weight(1.0, s, bounds, config) for e, s in slopes.items()}
    corners = {(x - x % 2, y - y % 2) for (x, y), _ in slopes}
    for x, y in corners:
        internal = [((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1)),
                    ((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))]
        if all(e in slopes for e in internal):
            w = scalar_weight(math.sqrt(2.0), max(slopes[e] for e in internal), bounds, config)
            edges[((x, y), (x + 1, y + 1))] = edges[((x + 1, y), (x, y + 1))] = w
    return edges


def scan_spanning_graph(tmap, config) -> tuple[list, dict]:
    """H's blocks (row-major) and weighted edges, by a scan of every block and
    every pair of adjacent blocks: the oracle ``build_spanning_graph`` is held to.

    A block is intact when its four internal edges are retained; two intact
    blocks are joined when both covering edges across their boundary are, and
    weigh ``edge_weight`` of length 2 at the mean of those two slopes.
    """
    slopes = tmap.edge_slopes

    def intact(bx, by):
        x, y = 2 * bx, 2 * by
        return all(e in slopes for e in (((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1)),
                                         ((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))))

    blocks = [(bx, by) for by in range(tmap.height // 2) for bx in range(tmap.width // 2)
              if intact(bx, by)]
    edges = {}
    for (bx, by), (dx, dy) in itertools.product(blocks, ((1, 0), (0, 1))):
        if (bx + dx, by + dy) not in blocks:
            continue
        x, y = 2 * bx + 1, 2 * by + 1
        lanes = ((((x, y - 1), (x + 1, y - 1)), ((x, y), (x + 1, y))) if dx else
                 (((x - 1, y), (x - 1, y + 1)), ((x, y), (x, y + 1))))
        if all(lane in slopes for lane in lanes):
            mean = (slopes[lanes[0]] + slopes[lanes[1]]) / 2
            edges[((bx, by), (bx + dx, by + dy))] = float(
                edge_weight(2.0, mean, tmap.slope_bounds, config))
    return blocks, edges


def canon(a, b) -> tuple:
    """The key of the edge between cells or blocks ``a`` and ``b``: row-major
    smaller end first."""
    return (a, b) if (a[1], a[0]) <= (b[1], b[0]) else (b, a)


def spanning_graph(blocks, edges: dict, shape=None) -> SpanningGraph:
    """H over ``blocks`` with ``edges`` weighted as given, keys ``canon(a, b)``.

    The one way the tests build H by hand: the rasters span ``shape`` (block
    rows, block columns), by default from block (0, 0) to the largest
    coordinates.
    """
    bh, bw = shape or (max((y for _, y in blocks), default=-1) + 1,
                       max((x for x, _ in blocks), default=-1) + 1)
    intact = np.zeros((bh, bw), dtype=bool)
    for x, y in blocks:
        intact[y, x] = True
    east = np.full(intact[:, 1:].shape, np.nan)
    north = np.full(intact[1:, :].shape, np.nan)
    for ((ax, ay), (bx, by)), w in edges.items():
        (east if by == ay else north)[ay, ax] = w
    return SpanningGraph(intact, east, north)


def spanning_tree(blocks, edges: dict, shape=None) -> SpanningTree:
    """A tree in H's form over ``blocks`` with ``edges``, laid out as ``spanning_graph``
    lays them out; ``total_weight`` adds the weights one by one in the dict's order.

    The one way the tests build a tree by hand.
    """
    h = spanning_graph(blocks, edges, shape)
    total = 0.0
    for w in edges.values():
        total += w
    return SpanningTree(h.intact, h.east, h.north, total)


def neighbours(h: SpanningGraph) -> dict:
    """Each block of H with its neighbours in row-major order, from ``h.edges``."""
    adjacency = {b: [] for b in h.blocks}
    for a, b in h.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    for lst in adjacency.values():
        lst.sort(key=lambda b: (b[1], b[0]))
    return adjacency


def bfs_components(h: SpanningGraph) -> list[list]:
    """Blocks of H grouped by connected component, by breadth-first search.

    Each group is row-major; larger groups come first, and groups of equal
    size keep the row-major order of their first block.  The oracle the
    tests hold ``SpanningGraph.component`` and ``labels`` to.
    """
    adjacency = neighbours(h)
    seen = set()
    groups = []
    for block in h.blocks:
        if block in seen:
            continue
        comp = {block}
        queue = deque([block])
        while queue:
            b = queue.popleft()
            for nbr in adjacency[b]:
                if nbr not in comp:
                    comp.add(nbr)
                    queue.append(nbr)
        seen |= comp
        groups.append(sorted(comp, key=lambda b: (b[1], b[0])))
    groups.sort(key=len, reverse=True)
    return groups


def kruskal_tree(h: SpanningGraph) -> SpanningTree:
    """Kruskal's MST by union-find, edges taken in (weight, row-major ends) order.

    The oracle the tests hold ``minimum_spanning_tree`` to, tie-break and
    order of accumulating ``total_weight`` included.
    """
    parent = {b: b for b in h.blocks}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = {}
    ranked = sorted(h.edges.items(), key=lambda kv: (kv[1], kv[0][0][1], kv[0][0][0],
                                                     kv[0][1][1], kv[0][1][0]))
    for (a, b), w in ranked:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            edges[(a, b)] = w
    return spanning_tree(h.blocks, edges, h.intact.shape)


def reference_stc_loop(g: CoveringGraph, tree: SpanningTree, start) -> tuple[list, list]:
    """The coverage loop around ``tree``, found cell by cell.

    A cell may step to a 4-neighbour only if the step neither crosses a
    tree edge nor crosses a block boundary without one; every covered
    cell has exactly two such moves.  The cycle is walked from ``start``
    and turned counter-clockwise (positive signed area).  Returns the
    loop's cells and hop weights: the oracle the tests hold
    ``spiral_stc_loop`` to.
    """
    covered = {}
    for bx, by in tree.blocks:
        for dx in (0, 1):
            for dy in (0, 1):
                covered[(2 * bx + dx, 2 * by + dy)] = (bx, by)

    def step_allowed(u, v):
        bu, bv = covered[u], covered[v]
        if bu != bv:
            return tree.has_edge(bu, bv)
        bx, by = bu
        if u[1] == v[1]:
            side = (bx, by - 1) if u[1] == 2 * by else (bx, by + 1)
        else:
            side = (bx - 1, by) if u[0] == 2 * bx else (bx + 1, by)
        return not tree.has_edge(bu, side)

    moves = {}
    for cell in covered:
        nbrs = [(cell[0] + dx, cell[1] + dy) for dx, dy in ((0, 1), (-1, 0), (0, -1), (1, 0))]
        moves[cell] = [v for v in nbrs if v in covered and step_allowed(cell, v)]
        if len(moves[cell]) != 2:
            raise ValueError(f"cell {cell} has {len(moves[cell])} moves")
    cycle, prev = [start], None
    while True:
        here = cycle[-1]
        nxt = next(c for c in moves[here] if c != prev)
        if nxt == start:
            break
        prev = here
        cycle.append(nxt)
    area = sum(x * ny - nx * y for (x, y), (nx, ny) in zip(cycle, cycle[1:] + cycle[:1]))
    if area < 0:
        cycle = [cycle[0]] + cycle[:0:-1]
    return cycle, [g.weight(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]


def scalar_mstc_bo(g: CoveringGraph, loop, depots, capacity=math.inf):
    """MSTC-BO's split search, one scalar ``segment_cost_at`` per robot and split.

    Returns the depot keys in loop order, the split of each arc (the cells
    handed to the next robot) and the plan weights by robot id.  The
    oracle the tests hold ``mstc_bo``'s array scan to.
    """
    length = len(loop)
    entries = sorted((loop.position(d), r) for r, d in enumerate(depots))
    k = len(entries)
    keys = [pos for pos, _ in entries]
    arc_len = [(keys[(j + 1) % k] - keys[j]) % length or length for j in range(k)]
    model = LoopCostModel(loop, g, [depots[r] for _, r in entries], capacity)
    splits = [0] * k

    def robot_cost(j, split_vec):
        return model.segment_cost_at(keys[j], arc_len[j] - split_vec[j], j,
                                     behind=split_vec[(j - 1) % k])

    if k > 1:
        current = [robot_cost(j, splits) for j in range(k)]
        for _ in range(8):
            changed = False
            for j in range(k):
                nxt = (j + 1) % k
                best_t, best_max = splits[j], max(current)
                for t in range(arc_len[j]):
                    if t == splits[j]:
                        continue
                    trial = list(splits)
                    trial[j] = t
                    trial_max = max(robot_cost(j, trial), robot_cost(nxt, trial),
                                    *(current[i] for i in range(k) if i not in (j, nxt)))
                    if trial_max < best_max - 1e-12:
                        best_t, best_max = t, trial_max
                if best_t != splits[j]:
                    splits[j] = best_t
                    current = [robot_cost(j, splits) for j in range(k)]
                    changed = True
            if not changed:
                break

    weights = [0.0] * k
    for j, (pos, robot) in enumerate(entries):
        behind = splits[(j - 1) % k]
        runs = [[loop.nodes[(pos - 1 - i) % length] for i in range(behind)],
                [loop.nodes[(pos + i) % length] for i in range(arc_len[j] - splits[j])]]
        weights[robot] = build_robot_plan(robot, depots[robot], runs, capacity, g).weight
    return keys, splits, weights


def sorted_pair_order(weights) -> list[tuple[int, int]]:
    """Every ordered pair (i, j), i != j, sorted by (weights[i] - weights[j], (i, j)).

    The oracle the tests hold the refinement's pair order to.
    """
    k = len(weights)
    return sorted(((i, j) for i in range(k) for j in range(k) if i != j),
                  key=lambda p: (weights[p[0]] - weights[p[1]], p))


def scalar_scan_improvement(model: LoopCostModel, current: PartitionSet,
                            size_cap, budget) -> PartitionSet | None:
    """The refinement scan, one scalar ``placement_costs`` call per placement.

    Segment pairs by cost gap, then every shift of both key chains of a
    pair, charging the budget one evaluation per shift and skipping
    colliding keys; with no improving shift, every rotation.  The oracle
    the tests hold the batched ``_scan_improvement`` to.
    """
    k = len(current.keys)
    length = current.loop_length
    base = list(current.keys)
    sizes = current.sizes()
    weights = current.weights
    cur_max = max(weights)
    best = None
    for mn, mx in sorted_pair_order(weights):
        for moving, sign in _chain_directions(k, mn, mx):
            lo, hi = 1 - sizes[mn], sizes[mx] - 1
            if size_cap is not None:
                lo = max(lo, sizes[mx] - size_cap)
                hi = min(hi, size_cap - sizes[mn])
            for t in range(lo, hi + 1):
                if t == 0:
                    continue
                if not budget.ok:
                    return best and PartitionSet(keys=best[1], loop_length=length,
                                                 weights=best[2])
                budget.charge()
                keys = list(base)
                for idx in moving:
                    keys[idx] = (base[idx] + sign * t) % length
                if len(set(keys)) != k:
                    continue
                costs, _ = model.placement_costs(keys)
                m = max(costs)
                if m < cur_max - 1e-12 and (best is None or m < best[0] - 1e-15):
                    best = (m, keys, costs)
        if best is not None:
            break
    if best is None:
        # whole-partition rotations (size-preserving) as a plateau escape
        for rot in range(1, length):
            if not budget.ok:
                break
            budget.charge()
            keys = [(p + rot) % length for p in base]
            costs, _ = model.placement_costs(keys)
            m = max(costs)
            if m < cur_max - 1e-12 and (best is None or m < best[0] - 1e-15):
                best = (m, keys, costs)
    if best is None:
        return None
    return PartitionSet(keys=best[1], loop_length=length, weights=best[2])


def loop_instance(seed: int, k: int, width: int = 14, height: int = 14) -> ScenePlanner:
    """Weighted scene whose k depots sit on consecutive loop cells.

    Mirrors the lower-left clustered depot layout of the grid-map
    experiments: the depots occupy the first k cells of the coverage
    loop, which keeps the depot-keyed baselines maximally lopsided.
    """
    probe = generate_scene("random", seed=seed, width=width, height=height,
                           robots=1, depot_style="clustered")
    loop = ScenePlanner(probe).loop
    scene = Scene(width=probe.width, height=probe.height, cell_size=probe.cell_size,
                  elevation=probe.elevation, blocked=probe.blocked,
                  landclass=probe.landclass, depots=list(loop.nodes[:k]))
    return ScenePlanner(scene)


def tiny_loop_instances(count: int, max_nodes: int = 16, min_nodes: int = 8):
    """Planner instances with small loops, alternating k between 2 and 3."""
    out = []
    seed = 0
    while len(out) < count and seed < 100 * count:
        seed += 1
        k = 2 if len(out) % 2 == 0 else 3
        try:
            planner = loop_instance(seed, k, width=4, height=4)
        except Exception:
            continue
        if min_nodes <= len(planner.loop) <= max_nodes:
            out.append((planner, k))
    assert len(out) == count, f"only built {len(out)} tiny instances"
    return out


@pytest.fixture(scope="session")
def small_planner() -> ScenePlanner:
    """Fully free flat 4x4 scene: 4 blocks, a 16-node loop."""
    return ScenePlanner(flat_scene(4, 4, depots=[(0, 0)]))
