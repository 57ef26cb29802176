"""Shared fixtures and instance builders for the test suite."""
from __future__ import annotations

import heapq
import importlib.util
import itertools
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from mrcpp.graphs import CoveringGraph, GraphError, SpanningGraph, edge_weight
from mrcpp.partition import (REL_TIE, LoopCostModel, PartitionError, PartitionSet, RefillTrip,
                             RobotPlan, _greedy_pass, _refill_offsets, _scan_improvement)
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene
from mrcpp.scenegen import generate_scene
from mrcpp.stc import SpanningTree
from mrcpp.terrain import TerrainError

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    """The benchmark's module ``bench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def compute_edge_slope(scene: Scene, a, b) -> float:
    """Slope of the edge between two 4-adjacent cells, in degrees, by the
    scalar formula: the reference ``steepness_filter``'s slopes are held to
    bit for bit.  Flat (no elevation raster) scenes have zero slope everywhere.
    """
    if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
        raise TerrainError(f"cells {a} and {b} are not 4-adjacent")
    if scene.elevation is None:
        return 0.0
    rise = abs(float(scene.elevation[a[1], a[0]]) - float(scene.elevation[b[1], b[0]]))
    return math.degrees(math.atan2(rise, scene.cell_size))


def hop_weight(g: CoveringGraph, a, b) -> float:
    """The weight of G's edge between cells ``a`` and ``b``, nan for none: one hop
    of ``g.hop_weights``."""
    return float(g.hop_weights(*np.array((a, b)).T)[0])


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


def block_edge(h: SpanningGraph, a, b) -> bool:
    """Whether blocks ``a`` and ``b`` are joined in H or a tree, read from its
    ``east`` and ``north`` rasters; a block off the raster joins none."""
    x, y, dx, dy = min(a[0], b[0]), min(a[1], b[1]), abs(a[0] - b[0]), abs(a[1] - b[1])
    if dx + dy != 1:
        return False
    raster = h.east if dx else h.north   # indexed by the lower-left end
    return 0 <= x < raster.shape[1] and 0 <= y < raster.shape[0] and not math.isnan(raster[y, x])


def random_spanning_graph(seed: int) -> SpanningGraph:
    """Connected H over a 4x3 block grid, edges weighted at random in [0.5, 3):
    of the blocks kept with probability 0.85, (0, 0) always, the largest
    component, the first found on ties.  The one random H of the MST tests."""
    rng = np.random.default_rng(seed)
    keep = {(x, y) for x in range(4) for y in range(3) if rng.random() < 0.85}
    keep.add((0, 0))

    largest, left = set(), set(keep)
    while left:   # each component from its least block; a tie keeps the first
        comp, stack = {min(left)}, [min(left)]
        while stack:
            b = stack.pop()
            for nbr in ((b[0] + 1, b[1]), (b[0] - 1, b[1]), (b[0], b[1] + 1), (b[0], b[1] - 1)):
                if nbr in left and nbr not in comp:
                    comp.add(nbr)
                    stack.append(nbr)
        left -= comp
        largest = comp if len(comp) > len(largest) else largest
    blocks = sorted(largest, key=lambda b: (b[1], b[0]))
    edges = {}
    for b in blocks:
        for nbr in ((b[0] + 1, b[1]), (b[0], b[1] + 1)):
            if nbr in blocks:
                edges[canon(b, nbr)] = float(rng.uniform(0.5, 3.0))
    return spanning_graph(blocks, edges)


def exhaustive_mst_weight(h: SpanningGraph) -> float:
    """The least weight of a spanning tree of H, by trying every set of
    ``len(h) - 1`` edges with union-find: the oracle ``minimum_spanning_tree``'s
    weight is held to."""
    n = len(h.blocks)
    best = math.inf
    items = list(h.edges.items())
    for combo in itertools.combinations(range(len(items)), n - 1):
        parent = {b: b for b in h.blocks}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        total, ok = 0.0, True
        for idx in combo:
            (a, b), w = items[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
            total += w
        if ok:
            best = min(best, total)
    return best


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
            return block_edge(tree, bu, bv)
        bx, by = bu
        if u[1] == v[1]:
            side = (bx, by - 1) if u[1] == 2 * by else (bx, by + 1)
        else:
            side = (bx - 1, by) if u[0] == 2 * bx else (bx + 1, by)
        return not block_edge(tree, bu, side)

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
    return cycle, [hop_weight(g, a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]


def scalar_mstc_bo(g: CoveringGraph, loop, depots, capacity=math.inf):
    """MSTC-BO's split search, walking every split one by one, each cost
    exact: the per-offset oracle ``segment_costs``.

    Returns the depot keys in loop order, the split of each arc (the cells
    handed to the next robot) and the plan weights by robot id, each from
    ``reference_robot_plan``, so a tail's join to the depot is read from the
    depot's solve.  The oracle the tests hold ``mstc_bo``'s prefix-sum scan
    to.
    """
    length = len(loop)
    entries = sorted((loop.position(d), r) for r, d in enumerate(depots))
    k = len(entries)
    keys = [pos for pos, _ in entries]
    arc_len = [(keys[(j + 1) % k] - keys[j]) % length or length for j in range(k)]
    model = LoopCostModel(loop, g, [depots[r] for _, r in entries], capacity)
    splits = [0] * k

    def robot_cost(j, size, behind):
        return segment_costs(model, keys[j], size, j, behind=behind).tolist()

    if k > 1:
        current = [robot_cost(j, arc_len[j] - splits[j], splits[(j - 1) % k]) for j in range(k)]
        for _ in range(8):
            changed = False
            for j in range(k):
                nxt = (j + 1) % k
                ts = np.arange(arc_len[j])
                own = robot_cost(j, arc_len[j] - ts, splits[(j - 1) % k])
                taker = robot_cost(nxt, arc_len[nxt] - splits[nxt], ts)
                others = [current[i] for i in range(k) if i not in (j, nxt)]
                trial = [math.inf if t == splits[j] else max(own[t], taker[t], *others)
                         for t in range(arc_len[j])]
                # the first split tied with the lowest trial, if that beats
                # the current maximum by more than a tie
                low, best_t = min(trial), splits[j]
                if low < max(current) * (1 - REL_TIE):
                    best_t = next(t for t, m in enumerate(trial) if m <= low * (1 + REL_TIE))
                if best_t != splits[j]:
                    splits[j] = best_t
                    current = [robot_cost(i, arc_len[i] - splits[i], splits[(i - 1) % k])
                               for i in range(k)]
                    changed = True
            if not changed:
                break

    weights = [0.0] * k
    for j, (pos, robot) in enumerate(entries):
        behind = splits[(j - 1) % k]
        runs = [loop_cells(loop, pos - 1, behind, -1),
                loop_cells(loop, pos, arc_len[j] - splits[j], 1)]
        weights[robot] = reference_robot_plan(robot, depots[robot], runs, capacity, g).weight
    return keys, splits, weights


def segment_costs(model: LoopCostModel, start: int, size, depot_idx: int,
                  behind=0) -> np.ndarray:
    """The exact cost of servicing ``behind`` cells walking backward from
    ``start - 1``, then the ``size`` cells from ``start`` forward, for
    arrays of ``size`` and ``behind``.

    It adds the tail's two legs and coverage, then the forward run's
    approach leg, coverage and return leg, then each refill term one by
    one, the tail's breaks first; a masked-out tail or refill term adds
    0.0.  Without a tail every entry is the left-to-right sum that
    ``placement_costs`` and ``placement_cost_rows`` take, the exact cost
    they are held to; ``prefix_segment_costs`` is held to it within its
    rounding.  Each refill offset is one pass over the arrays.
    """
    d, length, prefix = model.depot_dist[depot_idx], model.length, model.prefix
    size, behind = np.asarray(size), np.asarray(behind)
    tail = (start - behind) % length
    tail_cost = d[(start - 1) % length] + (prefix[tail + behind - 1] - prefix[tail]) + d[tail]
    cost = np.where(behind > 0, tail_cost, 0.0)
    cost = cost + d[start]
    cost = cost + (prefix[start + size - 1] - prefix[start])
    cost = cost + d[(start + size - 1) % length]
    total = behind + size
    for off in _refill_offsets(int(total.max()), model.capacity):
        pos = np.where(off < behind, start - off - 1, start + off - behind)
        cost = cost + np.where(off < total - 1, 2.0 * d[pos % length], 0.0)
    return cost


def reference_placement_costs(model: LoopCostModel, keys: list[int]) -> list[float]:
    """``model.placement_costs`` with every segment priced by the per-offset
    oracle ``segment_costs`` against ``greedy_binding``, for any k keys, in
    loop order or not: the exact costs ``placement_costs`` and
    ``placement_cost_rows`` are held to."""
    k, length = len(keys), model.length
    sizes = [(keys[(i + 1) % k] - key) % length or length for i, key in enumerate(keys)]
    if model.depots is None:
        return [model.coverage_cost(start, size) for start, size in zip(keys, sizes)]
    binding = model.greedy_binding(keys)
    return [float(segment_costs(model, start, size, robot))
            for start, size, robot in zip(keys, sizes, binding)]


def reference_placement_cost_rows(model: LoopCostModel, keys: np.ndarray) -> np.ndarray:
    """Exact ``placement_costs`` for every row of a (T, k) key matrix: the
    greedy binding as k rounds of ``argmin``, then one masked (T, k) refill
    term per offset, added in ``segment_costs``' order.  The full-matrix
    oracle ``placement_cost_rows`` is held to."""
    rows, k = keys.shape
    length, prefix = model.length, model.prefix
    sizes = np.full_like(keys, length) if k == 1 else (np.roll(keys, -1, axis=1) - keys) % length
    coverage = prefix[keys + sizes - 1] - prefix[keys]
    if model.depots is None:
        return coverage
    d = model.depot_dist
    pairs = d[:k, keys].transpose(1, 0, 2).copy()   # [t, robot, segment]
    flat = pairs.reshape(rows, k * k)
    binding = np.empty_like(keys)
    every = np.arange(rows)
    for _ in range(k):
        robot, segment = np.divmod(flat.argmin(axis=1), k)
        binding[every, segment] = robot
        pairs[every, robot, :] = np.inf
        pairs[every, :, segment] = np.inf
    cost = d[binding, keys] + coverage
    cost = cost + d[binding, (keys + sizes - 1) % length]
    for off in _refill_offsets(int(sizes.max()), model.capacity):
        cost = cost + np.where(off < sizes - 1, 2.0 * d[binding, (keys + off) % length], 0.0)
    return cost


class ExactCostModel(LoopCostModel):
    """A cost model that prices every placement, single or a matrix of them,
    with the per-offset oracle, so the searches run on it take every
    decision from the oracle's costs: what the searches are held to.  Its
    rows are exact whatever the bar, which keeps the row kernel's contract:
    a row's maximum is below the bar exactly when its exact maximum is."""

    def placement_costs(self, keys):
        return reference_placement_costs(self, keys)

    def placement_cost_rows(self, keys, bar):
        return reference_placement_cost_rows(self, keys)


def tuple_sort_binding(model: LoopCostModel, starts: list[int]) -> list[int]:
    """The greedy depot binding from the sorted (distance, robot, segment)
    triples: each pair, cheapest first, binds its robot to its segment when
    both are still free.  The oracle ``LoopCostModel.greedy_binding`` is
    held to."""
    k = len(starts)
    pairs = sorted([(float(model.depot_dist[r, s]), r, j) for r in range(k)
                    for j, s in enumerate(starts)])
    binding = [-1] * k
    used_robots = set()
    for _, r, j in pairs:
        if r in used_robots or binding[j] >= 0:
            continue
        binding[j] = r
        used_robots.add(r)
    return binding


def loop_cells(loop, start: int, count: int, step: int) -> list:
    """The cells of the loop range ``(start, count, step)``, one by one."""
    return [loop.nodes[(start + step * i) % len(loop)] for i in range(count)]


def reference_robot_plan(robot: int, depot, cell_runs, capacity: float,
                         g: CoveringGraph) -> RobotPlan:
    """A robot plan built by walking its serviced cells one by one.

    The oracle the tests hold ``build_robot_plan`` to: the approach leg, every
    hop (looked up in G), every refill trip, the legs between runs and the
    return leg are added to one float in walk order.  A leg with the depot at
    one end is the depot's distance to its other end, a join into a run that
    starts at the depot included; a join between two other cells is the
    distance from its earlier cell.
    """
    runs = [list(r) for r in cell_runs if r]
    if not runs:
        raise PartitionError("robot plan needs at least one serviced cell")
    total = sum(len(r) for r in runs)
    weight = g.distance(depot, runs[0][0])
    refills = []
    serviced = 0
    prev_cell = None
    for run in runs:
        if prev_cell is not None:
            weight += (g.distance(depot, prev_cell) if run[0] == depot
                       else g.distance(prev_cell, run[0]))
        for i, cell in enumerate(run):
            if i:
                hop = hop_weight(g, run[i - 1], cell)
                if math.isnan(hop):
                    raise GraphError(f"run hop {run[i - 1]} -> {cell} is not an edge of G")
                weight += hop
            serviced += 1
            if capacity != math.inf and serviced % int(capacity) == 0 and serviced < total:
                inbound = g.path(depot, cell)
                trip_cost = 2.0 * g.distance(depot, cell)
                refills.append(RefillTrip(serviced_index=serviced - 1, break_cell=cell,
                                          outbound=inbound[::-1],
                                          inbound=inbound, cost=trip_cost))
                weight += trip_cost
        prev_cell = run[-1]
    weight += g.distance(depot, prev_cell)
    trips = 1 if capacity == math.inf else -(-total // int(capacity))
    if len(refills) != trips - 1:
        raise PartitionError(f"{len(refills)} refills for {trips} trips")
    return RobotPlan(robot=robot, depot=depot, runs=runs, refills=refills,
                     trips=trips, weight=weight)


def plan_fields(plan: RobotPlan) -> tuple:
    """What a robot plan says, for comparing plans with ``==``: its runs, trips,
    weight, and each refill's index, break cell, cost and legs (as lists)."""
    refills = [(t.serviced_index, t.break_cell, t.cost, t.outbound.tolist(), t.inbound.tolist())
               for t in plan.refills]
    return plan.runs, plan.trips, plan.weight, refills


def sorted_pair_order(weights) -> list[tuple[int, int]]:
    """Every ordered pair (i, j), i != j, sorted by (weights[i] - weights[j], (i, j)).

    The oracle the tests hold the refinement's pair order to.
    """
    k = len(weights)
    return sorted(((i, j) for i in range(k) for j in range(k) if i != j),
                  key=lambda p: (weights[p[0]] - weights[p[1]], p))


def chain_directions(k: int, min_idx: int, max_idx: int):
    """Key chains for both loop directions, fewer-in-between first.

    Each entry is ``(moving_keys, sign)``: shifting every moving key by
    ``sign * t`` transfers t nodes out of the max segment through the
    in-between segments (node counts preserved) into the min segment.
    The list form the tests hold ``partition._chain`` to.
    """
    fwd_between = (min_idx - max_idx - 1) % k
    bwd_between = (max_idx - min_idx - 1) % k
    forward = ([(max_idx + j) % k for j in range(1, fwd_between + 2)], -1)
    backward = ([(max_idx - j) % k for j in range(bwd_between + 1)], +1)
    if fwd_between <= bwd_between:
        return forward, backward
    return backward, forward


def scalar_scan_improvement(model: LoopCostModel, current: PartitionSet,
                            size_cap: int, budget: int) -> tuple[PartitionSet | None, int]:
    """The refinement scan, one exact ``reference_placement_costs`` call per
    placement, and the evaluations it charged.

    Segment pairs by cost gap, then every shift of both key chains of a
    pair, charging one evaluation per shift, up to ``budget``, and skipping
    colliding keys; with no improving shift, every rotation.  The first
    placement taken beats the current maximum by more than ``REL_TIE``,
    and a later one is below the best so far.  No cost is below 0.0, so
    with a current maximum of 0.0 it charges nothing.  The oracle the
    tests hold the batched ``_scan_improvement`` to.
    """
    k = len(current.keys)
    length = current.loop_length
    base = list(current.keys)
    sizes = current.sizes()
    weights = current.weights
    cur_max = max(weights)
    if cur_max <= 0.0:
        return None, 0
    best, used = None, 0
    for mn, mx in sorted_pair_order(weights):
        for moving, sign in chain_directions(k, mn, mx):
            lo = max(1 - sizes[mn], sizes[mx] - size_cap)
            hi = min(sizes[mx] - 1, size_cap - sizes[mn])
            for t in range(lo, hi + 1):
                if t == 0:
                    continue
                if used >= budget:
                    return best and PartitionSet(keys=best[1], loop_length=length,
                                                 weights=best[2]), used
                used += 1
                keys = list(base)
                for idx in moving:
                    keys[idx] = (base[idx] + sign * t) % length
                if len(set(keys)) != k:
                    continue
                costs = reference_placement_costs(model, keys)
                m = max(costs)
                if m < cur_max * (1 - REL_TIE) and (best is None or m < best[0]):
                    best = (m, keys, costs)
        if best is not None:
            break
    if best is None:
        # whole-partition rotations (size-preserving) as a plateau escape
        for rot in range(1, length):
            if used >= budget:
                break
            used += 1
            keys = [(p + rot) % length for p in base]
            costs = reference_placement_costs(model, keys)
            m = max(costs)
            if m < cur_max * (1 - REL_TIE) and (best is None or m < best[0]):
                best = (m, keys, costs)
    if best is None:
        return None, used
    return PartitionSet(keys=best[1], loop_length=length, weights=best[2]), used


def memo_free_optimize_partition(model: LoopCostModel, initial: PartitionSet, size_cap: int,
                                 limit: int, scans: list | None = None):
    """``optimize_partition`` under an evaluation limit with every
    refinement scan run afresh, and the evaluations it charged: the oracle
    the tests hold its memo of scans to.

    Each scan is logged to ``scans`` as (start keys, evaluations charged
    before, evaluations charged after).
    """
    k, length = len(initial.keys), initial.loop_length
    costs = model.placement_costs(initial.keys)
    current = PartitionSet(keys=list(initial.keys), loop_length=length, weights=costs)
    if k == 1:
        return current, 0, 0
    used = 0

    def refine(current):
        nonlocal used
        while used < limit and len(current.keys) > 1:
            improved, charged = _scan_improvement(model, current, size_cap, limit - used)
            if scans is not None:
                scans.append((tuple(current.keys), used, used + charged))
            used += charged
            if improved is None:
                break
            current = improved
        return current

    best, iterations = _greedy_pass(model, current, 64 * k, size_cap)
    best = refine(best)
    for rot in range(1, length):
        if used >= limit:
            break
        keys = [(p + rot) % length for p in initial.keys]
        used += k
        cand = refine(PartitionSet(keys=keys, loop_length=length,
                                   weights=model.placement_costs(keys)))
        if max(cand.weights) < max(best.weights):
            best = cand
    return best, iterations, used


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
