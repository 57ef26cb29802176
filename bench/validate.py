"""Plan validator: checks a written plan document against the scene's graph.

Runs outside the timed region.  Shortest-path distances are recomputed
from G's edge list with a matrix and Dijkstra solves of the validator's
own, so a fault in ``CoveringGraph.sssp`` or its cache cannot hide
itself.  ``validate_plan`` returns a list of error strings; empty means
the plan is valid.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

REL_TOL = 1e-9


class GraphOracle:
    """Edge set and shortest-path distances rebuilt from G's edge list."""

    def __init__(self, graph, loop_nodes):
        self.index = dict(graph.index)
        self.loop_cells = [tuple(c) for c in loop_nodes]
        n = len(graph.cells)
        pairs = np.array(list(graph.weights.keys()), dtype=np.int64).reshape(-1, 2)
        w = np.fromiter(graph.weights.values(), dtype=np.float64, count=len(pairs))
        self.edges = {(int(i), int(j)): float(x) for (i, j), x in zip(pairs, w)}
        rows = np.concatenate((pairs[:, 0], pairs[:, 1]))
        cols = np.concatenate((pairs[:, 1], pairs[:, 0]))
        self.matrix = csr_matrix((np.concatenate((w, w)), (rows, cols)), shape=(n, n))
        self._dist: dict[int, np.ndarray] = {}

    def node(self, cell) -> int:
        return self.index[tuple(cell)]

    def edge_weight(self, a, b) -> float | None:
        i, j = self.index.get(tuple(a)), self.index.get(tuple(b))
        if i is None or j is None:
            return None
        return self.edges.get((i, j) if i < j else (j, i))

    def distance(self, a, b) -> float:
        src = self.node(a)
        if src not in self._dist:
            self._dist[src] = dijkstra(self.matrix, directed=False, indices=src)
        return float(self._dist[src][self.node(b)])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _walk_errors(oracle: GraphOracle, cells, what: str) -> list[str]:
    for a, b in zip(cells, cells[1:]):
        if oracle.edge_weight(a, b) is None:
            return [f"{what}: step {a} -> {b} is not an edge of G"]
    return []


def validate_plan(doc: dict, oracle: GraphOracle, depots, robots: int,
                  capacity: float) -> list[str]:
    """Every way ``doc`` disagrees with the graph, the loop and the request."""
    errors: list[str] = []
    plans = doc.get("plans", [])
    if doc.get("robots") != robots or len(plans) != robots:
        return [f"expected {robots} robot plans, got {len(plans)}"]
    if sorted(p["robot"] for p in plans) != list(range(robots)):
        errors.append("robot ids are not 0..k-1")

    serviced = Counter(tuple(c) for p in plans for run in p["runs"] for c in run)
    duplicates = [c for c, n in serviced.items() if n > 1]
    if duplicates:
        errors.append(f"coverage: {len(duplicates)} cells serviced more than once")
    loop_cells = set(oracle.loop_cells)
    missing = loop_cells - serviced.keys()
    if missing:
        errors.append(f"coverage: {len(missing)} loop cells never serviced")
    extra = serviced.keys() - loop_cells
    if extra:
        errors.append(f"coverage: {len(extra)} serviced cells are not on the loop")

    weights = []
    for p in plans:
        errors += _robot_errors(p, oracle, depots, capacity)
        weights.append(p["weight"])
    if weights and not _close(doc["global"]["max_weight"], max(weights)):
        errors.append("global max_weight is not the largest robot weight")
    if weights and not _close(doc["global"]["total_weight"], sum(weights)):
        errors.append("global total_weight is not the sum of robot weights")
    return errors


def _robot_errors(p: dict, oracle: GraphOracle, depots, capacity: float) -> list[str]:
    who = f"robot {p['robot']}"
    depot = tuple(p["depot"])
    if p["robot"] < len(depots) and depot != tuple(depots[p["robot"]]):
        return [f"{who}: depot {depot} is not the scene's depot {depots[p['robot']]}"]
    runs = [[tuple(c) for c in run] for run in p["runs"]]
    order = [c for run in runs for c in run]
    if not order:
        return [f"{who}: services no cells"]
    if [tuple(c) for c in p["path"]] != order:
        return [f"{who}: path is not the concatenation of its runs"]
    if any(c not in oracle.index for c in order):
        return [f"{who}: services a cell that is not a node of G"]
    for i, run in enumerate(runs):
        bad = _walk_errors(oracle, run, f"{who} run {i}")
        if bad:
            return bad

    errors = []
    size = len(order)
    trips = 1 if capacity == math.inf else -(-size // int(capacity))
    if p["trips"] != trips:
        errors.append(f"{who}: trips {p['trips']} != ceil({size}/c) = {trips}")
    if len(p["refills"]) != trips - 1:
        errors.append(f"{who}: {len(p['refills'])} refills for {trips} trips")

    weight = oracle.distance(depot, runs[0][0])
    for i, run in enumerate(runs):
        if i > 0:
            weight += oracle.distance(runs[i - 1][-1], run[0])
        weight += sum(oracle.edge_weight(a, b) for a, b in zip(run, run[1:]))
    weight += oracle.distance(order[-1], depot)
    for j, t in enumerate(p["refills"] if capacity != math.inf else []):
        where = f"{who} refill {j}"
        expected_index = (j + 1) * int(capacity) - 1
        cell = tuple(t["cell"])
        if t["index"] != expected_index or order[min(expected_index, size - 1)] != cell:
            errors.append(f"{where}: break at {t['index']} {cell}, expected {expected_index}")
            continue
        leg = oracle.distance(depot, cell)
        inbound = [tuple(c) for c in t["inbound"]]
        outbound = [tuple(c) for c in t["outbound"]]
        if inbound[:1] != [depot] or inbound[-1:] != [cell] or outbound != inbound[::-1]:
            errors.append(f"{where}: legs do not join the depot and the break cell")
            continue
        errors += _walk_errors(oracle, inbound, f"{where} inbound")
        walked = sum(oracle.edge_weight(a, b) or 0.0 for a, b in zip(inbound, inbound[1:]))
        if not _close(walked, leg):
            errors.append(f"{where}: inbound leg costs {walked}, shortest is {leg}")
        if not _close(t["cost"], 2.0 * leg):
            errors.append(f"{where}: cost {t['cost']} != 2 x {leg}")
        weight += 2.0 * leg
    if not _close(p["weight"], weight):
        errors.append(f"{who}: weight {p['weight']} != recomputed {weight}")
    return errors
