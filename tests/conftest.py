"""Shared fixtures and instance builders for the test suite."""
from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np
import pytest

from mrcpp.graphs import CoveringGraph, GraphError, SpanningGraph
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import Scene
from mrcpp.scenegen import generate_scene


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


def bfs_components(h: SpanningGraph) -> list[list]:
    """Blocks of H grouped by connected component, by breadth-first search.

    Each group is row-major; larger groups come first, and groups of equal
    size keep the row-major order of their first block.  The oracle the
    tests hold ``SpanningGraph.components`` to.
    """
    seen = set()
    groups = []
    for block in h.blocks:
        if block in seen:
            continue
        comp = {block}
        queue = deque([block])
        while queue:
            b = queue.popleft()
            for nbr in h.adjacency[b]:
                if nbr not in comp:
                    comp.add(nbr)
                    queue.append(nbr)
        seen |= comp
        groups.append(sorted(comp, key=lambda b: (b[1], b[0])))
    groups.sort(key=len, reverse=True)
    return groups


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
