"""Partitioning the coverage loop among k robots.

A partition is a set of k key positions on the loop; segment i runs from
key i up to (but excluding) key i+1, cyclically.  The cost of a segment
is the full robot cost: approach leg from the depot, the coverage hops,
a refill excursion to the depot after every ``capacity`` serviced cells,
and the final return leg.

The balanced optimizer starts from the naive equal-count partition and
repeatedly shifts key nodes between the currently heaviest and lightest
segments (binary search on the shift amount), accepting a placement only
when the maximum segment cost does not increase, so the maximum cost is
non-increasing across iterations.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .graphs import CoveringGraph
from .scene import Cell
from .stc import CoverageLoop

REL_IMPROVEMENT_EPS = 1e-9


class PartitionError(ValueError):
    pass


@dataclass
class PartitionSet:
    """k key positions into the loop; segment i = [keys[i], keys[i+1])."""
    keys: list[int]
    loop_length: int
    weights: list[float] | None = None

    def __post_init__(self):
        if len(set(self.keys)) != len(self.keys):
            raise PartitionError("key positions must be distinct")
        if any(not 0 <= r < self.loop_length for r in self.keys):
            raise PartitionError("key positions outside the loop")

    def __len__(self) -> int:
        return len(self.keys)

    def sizes(self) -> list[int]:
        k, length = len(self.keys), self.loop_length
        if k == 1:
            return [length]
        return [(self.keys[(i + 1) % k] - self.keys[i]) % length for i in range(k)]


@dataclass
class RefillTrip:
    serviced_index: int        # 0-based position of the break cell in the serviced order
    break_cell: Cell
    outbound: list[Cell]       # break cell -> depot
    inbound: list[Cell]        # depot -> break cell
    cost: float


@dataclass
class RobotPlan:
    robot: int
    depot: Cell
    runs: list[list[Cell]]     # serviced cell runs, in execution order
    refills: list[RefillTrip]
    trips: int                 # loads consumed (r_i)
    weight: float              # full cost: legs + coverage + refills

    @property
    def segment(self) -> list[Cell]:
        return [c for run in self.runs for c in run]


@dataclass
class PlanOutcome:
    plans: list[RobotPlan]
    partition: PartitionSet
    binding: list[int]           # segment index -> robot index
    iterations: int

    @property
    def max_weight(self) -> float:
        return max_weight(self.plans)

    @property
    def total_weight(self) -> float:
        return float(np.cumsum([p.weight for p in self.plans])[-1])


def max_weight(plans) -> float:
    plans = list(plans)
    if not plans:
        raise PartitionError("no plans")
    return max(p.weight for p in plans)


def _refill_offsets(size: int, capacity: float) -> range:
    # break after every `capacity` serviced cells, unless the segment ends there
    if capacity == math.inf:
        return range(0)
    c = int(capacity)
    return range(c - 1, size - 1, c)


def trips_required(size: int, capacity: float) -> int:
    if capacity == math.inf:
        return 1
    return (size + int(capacity) - 1) // int(capacity)


def build_robot_plan(robot: int, depot: Cell, loop: CoverageLoop,
                     runs: list[tuple[int, int, int]], capacity: float,
                     g: CoveringGraph) -> RobotPlan:
    """Assemble a robot plan and its exact cost from runs of the loop.

    A run ``(start, count, step)`` services ``count`` cells from loop
    position ``start`` on, cyclically, forward for step 1 and backward for
    step -1; a run of no cells is dropped.  Runs are serviced in order and
    joined by shortest-path travel legs.  A refill excursion to the depot
    follows every ``capacity`` serviced cells while cells remain.  The
    weight adds, in walk order: the approach leg, each run's hops with each
    excursion right after its break cell, the legs between runs, and the
    return leg.
    """
    runs = [run for run in runs if run[1]]
    if not runs:
        raise PartitionError("robot plan needs at least one serviced cell")
    cells, positions, reach, prev = [], [], [], depot
    for start, count, step in runs:
        pos = (start + step * np.arange(count)) % len(loop)
        run = list(zip(loop.x[pos].tolist(), loop.y[pos].tolist()))
        # edge p joins positions p and p + 1, whichever way it is walked
        hops = loop.edge_weights[pos[:-1] if step > 0 else pos[1:]]
        reach += [[g.distance(prev, run[0])], hops]
        cells.append(run)
        positions.append(pos)
        prev = run[-1]
    serviced = np.concatenate(positions)
    offsets = np.array(_refill_offsets(len(serviced), capacity), dtype=np.int64)
    refills = []
    for off, x, y in zip(offsets.tolist(), loop.x[serviced[offsets]].tolist(),
                         loop.y[serviced[offsets]].tolist()):
        inbound = g.path(depot, (x, y))
        refills.append(RefillTrip(serviced_index=off, break_cell=(x, y), outbound=inbound[::-1],
                                  inbound=inbound, cost=2.0 * g.distance(depot, (x, y))))
    # row i: the cost of reaching serviced cell i, then of the trip that breaks
    # there (0.0 for none); the last row is the return leg
    increments = np.zeros((len(serviced) + 1, 2))
    increments[:-1, 0] = np.concatenate(reach)
    increments[offsets, 1] = [t.cost for t in refills]
    increments[-1, 0] = g.distance(depot, prev)
    weight = np.cumsum(increments.ravel())[-1]
    return RobotPlan(robot=robot, depot=depot, runs=cells, refills=refills,
                     trips=trips_required(len(serviced), capacity), weight=float(weight))


class LoopCostModel:
    """O(1) segment costs over a fixed loop via prefix sums.

    With depots, a segment's cost includes approach/return legs and refill
    excursions against the greedily bound depot; without depots (the
    virtual-robot mode used under finite capacity) costs are coverage-only.

    ``segment_cost_at`` prices one segment; ``segment_costs`` is the same
    formula over arrays of sizes and tails, for scans over many splits.
    ``placement_costs`` prices one placement of k keys, and
    ``placement_cost_rows`` a whole matrix of placements at once.
    The scalar methods read the arrays through memoryviews, which share
    their memory and index to Python floats: numpy scalars, which indexing
    the arrays gives, make the scalar arithmetic several times slower.
    """

    def __init__(self, loop: CoverageLoop, g: CoveringGraph | None = None,
                 depots: list[Cell] | None = None, capacity: float = math.inf):
        self.loop = loop
        self.length = len(loop)
        self.capacity = capacity
        self.prefix = np.concatenate(([0.0], np.cumsum(np.tile(loop.edge_weights, 2))))
        self._prefix = memoryview(self.prefix)
        self.depots = list(depots) if depots else None
        if self.depots is not None:
            (h, w), x, y = g.node.shape, loop.x, loop.y
            ids = np.where((x >= 0) & (x < w) & (y >= 0) & (y < h), g.node[y % h, x % w], -1)
            if (ids < 0).any():
                raise PartitionError("a loop cell is not a node of the covering graph")
            # depot r's distance to loop position p at [r, p]
            self.depot_dist = np.stack([g.sssp(d)[0][ids] for d in self.depots])
            if not np.isfinite(self.depot_dist).all():
                # the row kernel's binding masks taken pairs with inf
                raise PartitionError("a depot cannot reach every loop cell")
            self._depot_dist = [memoryview(d) for d in self.depot_dist]

    def coverage_cost(self, start: int, size: int) -> float:
        return self._prefix[start + size - 1] - self._prefix[start]

    def segment_cost_at(self, start: int, size: int, depot_idx: int,
                        behind: int = 0) -> float:
        """Full cost of servicing ``behind`` cells walking backward from
        ``start - 1``, then the ``size`` cells from ``start`` forward."""
        d, length = self._depot_dist[depot_idx], self.length
        cost = 0.0
        if behind:
            tail = (start - behind) % length
            cost += d[(start - 1) % length] + self.coverage_cost(tail, behind) + d[tail]
        cost += d[start]
        cost += self.coverage_cost(start, size)
        cost += d[(start + size - 1) % length]
        for off in _refill_offsets(behind + size, self.capacity):
            pos = start - off - 1 if off < behind else start + off - behind
            cost += 2.0 * d[pos % length]
        return cost

    def segment_costs(self, start: int, size, depot_idx: int, behind=0) -> np.ndarray:
        """``segment_cost_at`` for arrays of ``size`` and ``behind``.

        The terms are added in the scalar order, and a masked-out tail or
        refill term adds 0.0, so every entry equals the scalar cost bit
        for bit.
        """
        d, length, prefix = self.depot_dist[depot_idx], self.length, self.prefix
        size, behind = np.asarray(size), np.asarray(behind)
        tail = (start - behind) % length
        tail_cost = (d[(start - 1) % length] + (prefix[tail + behind - 1] - prefix[tail])
                     + d[tail])
        cost = np.where(behind > 0, tail_cost, 0.0)
        cost = cost + d[start]
        cost = cost + (prefix[start + size - 1] - prefix[start])
        cost = cost + d[(start + size - 1) % length]
        total = behind + size
        for off in _refill_offsets(int(total.max()), self.capacity):
            pos = np.where(off < behind, start - off - 1, start + off - behind)
            cost = cost + np.where(off < total - 1, 2.0 * d[pos % length], 0.0)
        return cost

    def greedy_binding(self, starts: list[int]) -> list[int]:
        """Assign robots to segments greedily by cheapest approach leg."""
        k = len(starts)
        pairs = sorted([(dist[s], r, j) for r, dist in enumerate(self._depot_dist[:k])
                        for j, s in enumerate(starts)])
        binding = [-1] * k
        used_robots = set()
        for _, r, j in pairs:
            if r in used_robots or binding[j] >= 0:
                continue
            binding[j] = r
            used_robots.add(r)
        return binding

    def placement_costs(self, keys: list[int]) -> tuple[list[float], list[int] | None]:
        k, length = len(keys), self.length
        if self.depots is None:
            # coverage only: one prefix-sum difference per segment
            ring = np.array(keys + keys[:1])
            starts = ring[:-1]
            sizes = (ring[1:] - starts) % length if k > 1 else length
            return (self.prefix[starts + sizes - 1] - self.prefix[starts]).tolist(), None
        if k == 1:
            sizes = [length]
        else:
            sizes = [(keys[(i + 1) % k] - keys[i]) % length for i in range(k)]
        binding = self.greedy_binding(keys)
        costs = [self.segment_cost_at(keys[i], sizes[i], binding[i]) for i in range(k)]
        return costs, binding

    def placement_cost_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``placement_costs`` for every row of a (T, k) key matrix.

        Row t equals ``placement_costs(keys[t].tolist())`` bit for bit.
        The greedy binding is k rounds of ``argmin`` over each row's k * k
        depot distances flattened in (robot, segment) order, so ties go
        the way the sorted (distance, robot, segment) triples break them;
        a taken robot's and a taken segment's pairs are masked with inf.
        The cost terms are added in ``segment_cost_at``'s order, and a
        masked-out refill term adds 0.0.
        """
        rows, k = keys.shape
        length, prefix = self.length, self.prefix
        if k == 1:
            sizes = np.full_like(keys, length)
        else:
            sizes = (keys[:, list(range(1, k)) + [0]] - keys) % length
        coverage = prefix[keys + sizes - 1] - prefix[keys]
        if self.depots is None:
            return coverage, None
        d = self.depot_dist
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
        for off in _refill_offsets(int(sizes.max()), self.capacity):
            cost = cost + np.where(off < sizes - 1, 2.0 * d[binding, (keys + off) % length],
                                   0.0)
        return cost, binding


def naive_partition(loop: CoverageLoop, k: int) -> PartitionSet:
    """Equal-count keys at floor(j * len / k) offsets from the loop start."""
    length = len(loop)
    if not 1 <= k <= length:
        raise PartitionError(f"cannot cut a {length}-node loop into {k} parts")
    keys = [j * length // k for j in range(k)]
    return PartitionSet(keys=keys, loop_length=length)


def _chain_directions(k: int, min_idx: int, max_idx: int):
    """Key chains for both loop directions, fewer-in-between first.

    Each entry is ``(moving_keys, sign)``: shifting every moving key by
    ``sign * t`` transfers t nodes out of the max segment through the
    in-between segments (node counts preserved) into the min segment.
    """
    fwd_between = (min_idx - max_idx - 1) % k
    bwd_between = (max_idx - min_idx - 1) % k
    forward = ([(max_idx + j) % k for j in range(1, fwd_between + 2)], -1)
    backward = ([(max_idx - j) % k for j in range(bwd_between + 1)], +1)
    if fwd_between <= bwd_between:
        return forward, backward
    return backward, forward


def _shift_bounds(min_size, max_size, size_cap: int | None):
    """The shifts t that keep the min and max segments, t nodes moved from
    the max one into the min one, non-empty and within ``size_cap``.
    Elementwise over arrays of sizes."""
    lo, hi = 1 - min_size, max_size - 1
    if size_cap is not None:
        lo = np.maximum(lo, max_size - size_cap)
        hi = np.minimum(hi, size_cap - min_size)
    return lo, hi


def balanced_cut(pset: PartitionSet, min_idx: int, max_idx: int,
                 model: LoopCostModel, size_cap: int | None = None) -> PartitionSet:
    """Shift key nodes between the lightest and heaviest segments.

    Binary search on the cumulative shift: nodes move out of the heaviest
    segment through the in-between chain into the lightest, in-between
    node counts unchanged.  Returns the probed placement with the
    smallest maximum segment cost, never worse than the input.
    """
    if min_idx == max_idx:
        raise PartitionError("min and max segments must differ")
    length = pset.loop_length
    base = list(pset.keys)
    sizes = pset.sizes()
    (moving, sign), _ = _chain_directions(len(base), min_idx, max_idx)
    lo, hi = map(int, _shift_bounds(sizes[min_idx], sizes[max_idx], size_cap))

    def probe(shift: int) -> tuple[list[int], list[float]]:
        shift = min(max(shift, lo), hi)
        keys = list(base)
        for idx in moving:
            keys[idx] = (base[idx] + sign * shift) % length
        costs, _ = model.placement_costs(keys)
        return keys, costs

    best_keys, best_costs = probe(0)
    best_max = max(best_costs)
    left, right = 0, sizes[min_idx] + sizes[max_idx]
    ref = (left + right) // 2   # probe shifts are midpoints relative to this
    while left < right:
        mid = (left + right) // 2
        keys, costs = probe(mid - ref)
        if max(costs) < best_max - 1e-15:
            best_keys, best_costs, best_max = keys, costs, max(costs)
        if costs[min_idx] < costs[max_idx]:
            left = mid + 1
        else:
            right = mid - 1
    return PartitionSet(keys=best_keys, loop_length=length, weights=best_costs)


class _EvalBudget:
    """Counts placement evaluations spent by the refinement phase."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1):
        self.used += n

    def take(self, n: int) -> int:
        """Charge ``n`` evaluations, or as many as are left; returns the number charged."""
        n = max(0, min(n, self.limit - self.used))
        self.used += n
        return n

    @property
    def ok(self) -> bool:
        return self.used < self.limit


def _greedy_pass(model: LoopCostModel, current: PartitionSet, max_iters: int,
                 size_cap: int | None) -> tuple[PartitionSet, int]:
    """The outer greedy loop: rebalance the heaviest/lightest pair until stuck."""
    iterations = 0
    while iterations < max_iters and len(current.keys) > 1:
        weights = current.weights
        cur_max, cur_min = max(weights), min(weights)
        if cur_max - cur_min <= REL_IMPROVEMENT_EPS * max(cur_max, 1.0):
            break
        candidate = balanced_cut(current, weights.index(cur_min),
                                 weights.index(cur_max), model, size_cap)
        iterations += 1
        new_max = max(candidate.weights)
        if new_max <= cur_max:
            current = candidate
        if cur_max - new_max <= REL_IMPROVEMENT_EPS * max(cur_max, 1.0):
            break
    return current, iterations


def _pairs_by_gap(weights: list[float], feasible: np.ndarray) -> Iterator[tuple[int, int]]:
    """Every ordered segment pair (i, j), i != j, with ``feasible[i, j]``, by
    cost gap ``weights[i] - weights[j]``, ties broken by (i, j).

    A scan rarely visits more than a few hundred of the k(k-1) pairs, so
    the order is built lazily: each round sorts only the smallest gaps
    left, every tie of the largest one included, and takes eight times
    as many as the round before.
    """
    k = len(weights)
    first, second = np.nonzero(feasible & ~np.eye(k, dtype=bool))   # in (i, j) order
    w = np.asarray(weights)
    gaps = w[first] - w[second]
    rest = np.arange(gaps.size)
    take = 4 * k
    while rest.size:
        left = gaps[rest]
        if take < rest.size:
            head = left <= np.partition(left, take)[take]
            batch, rest = rest[head], rest[~head]
        else:
            batch, rest = rest, rest[:0]
        # a stable sort keeps equal gaps in (i, j) order
        batch = batch[np.argsort(gaps[batch], kind="stable")]
        yield from zip(first[batch].tolist(), second[batch].tolist())
        take *= 8


# a batched scan prices at most this many keys per ``placement_cost_rows``
# call, which bounds the memory of its (rows, k, k) binding array
SCAN_CHUNK_KEYS = 1 << 14


def _scan_improvement(model: LoopCostModel, current: PartitionSet,
                      size_cap: int | None, budget: _EvalBudget
                      ) -> PartitionSet | None:
    """Exhaustive chain scan over segment pairs, largest cost gap first.

    Returns the best strictly improving placement found before the budget
    runs out, or None when the partition is pairwise optimal.  Both chain
    directions of a pair, and the rotation sweep, are each one matrix of
    placements priced by ``placement_cost_rows``; the first strictly
    better placement is then found by replaying the rows in order, so the
    result does not depend on the chunking.
    """
    k = len(current.keys)
    length = current.loop_length
    base = np.array(current.keys)
    sizes = np.array(current.sizes())
    cur_max = max(current.weights)
    best = None   # (max cost, keys, costs)

    def scan(steps: np.ndarray, shifts: np.ndarray):
        """Charge and price, as far as the budget goes, the placements
        ``base + step * t``: for each row ``step`` of ``steps``, each t of
        ``shifts`` in order."""
        nonlocal best
        n = len(shifts)
        count = budget.take(len(steps) * n)
        chunk = max(1, SCAN_CHUNK_KEYS // k)
        for begin in range(0, count, chunk):
            row = np.arange(begin, min(begin + chunk, count))
            keys = (base + steps[row // n] * shifts[row % n, None]) % length
            costs, _ = model.placement_cost_rows(keys)
            top = costs.max(axis=1)
            if not steps.all():
                # keys that stay put can collide with moved ones: such a
                # placement is charged but never taken
                ordered = np.sort(keys, axis=1)
                top[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)] = math.inf
            tops = top.tolist()
            for i in np.flatnonzero(top < cur_max - 1e-12).tolist():
                if best is None or tops[i] < best[0] - 1e-15:
                    best = (tops[i], keys[i].tolist(), costs[i].tolist())

    # the bounds of pair (min, max) at [min, max]
    lo, hi = np.broadcast_arrays(*_shift_bounds(sizes[:, None], sizes, size_cap))
    feasible = (lo <= hi) & ((lo != 0) | (hi != 0))
    for mn, mx in _pairs_by_gap(current.weights, feasible):
        shifts = np.arange(lo[mn, mx], hi[mn, mx] + 1)
        steps = np.zeros((2, k), dtype=base.dtype)
        for step, (moving, sign) in zip(steps, _chain_directions(k, mn, mx)):
            step[moving] = sign
        scan(steps, shifts[shifts != 0])
        if best is not None or not budget.ok:
            break
    if best is None:
        # whole-partition rotations (size-preserving) as a plateau escape;
        # a spent budget prices none of them
        scan(np.ones((1, k), dtype=base.dtype), np.arange(1, length))
    if best is None:
        return None
    return PartitionSet(keys=best[1], loop_length=length, weights=best[2])


def _refine(model: LoopCostModel, current: PartitionSet, size_cap: int | None,
            budget: _EvalBudget) -> PartitionSet:
    while budget.ok and len(current.keys) > 1:
        improved = _scan_improvement(model, current, size_cap, budget)
        if improved is None:
            break
        current = improved
    return current


def optimize_partition(model: LoopCostModel, initial: PartitionSet,
                       max_iters: int, size_cap: int | None = None
                       ) -> tuple[PartitionSet, int]:
    """Balance a partition: greedy binary-search cuts plus bounded refinement.

    After the primary greedy pass, the remaining evaluation budget is
    spent on exact pair scans and on restarting the greedy from rotations
    of the initial keys, keeping the best placement seen.  Small loops
    get an effectively exhaustive search; large ones a few targeted
    scans.  Deterministic throughout, and never worse than the primary
    greedy result.
    """
    k = len(initial.keys)
    length = initial.loop_length
    costs, _ = model.placement_costs(initial.keys)
    current = PartitionSet(keys=list(initial.keys), loop_length=length, weights=costs)
    if k == 1:
        return current, 0
    budget = _EvalBudget(max(2000, min(50_000, 400_000 // (k * max(1, length // 8)))))

    best, iterations = _greedy_pass(model, current, max_iters, size_cap)
    best = _refine(model, best, size_cap, budget)
    for rot in range(1, length):
        if not budget.ok:
            break
        keys = [(p + rot) % length for p in initial.keys]
        budget.charge(k)
        rc, _ = model.placement_costs(keys)
        cand = PartitionSet(keys=keys, loop_length=length, weights=rc)
        # polish-only restarts: the greedy pass would funnel most rotated
        # starts into the same basin, defeating the restart diversity
        cand = _refine(model, cand, size_cap, budget)
        if max(cand.weights) < max(best.weights) - 1e-15:
            best = cand
    return best, iterations


def _bound_outcome(g: CoveringGraph, model: LoopCostModel, pset: PartitionSet,
                   iterations: int) -> PlanOutcome:
    """Bind the model's depots to the segments of ``pset`` greedily and
    build their plans."""
    pset.weights, binding = model.placement_costs(pset.keys)
    plans = [build_robot_plan(robot, model.depots[robot], model.loop, [(key, size, 1)],
                              model.capacity, g)
             for key, size, robot in zip(pset.keys, pset.sizes(), binding)]
    plans.sort(key=lambda p: p.robot)
    return PlanOutcome(plans=plans, partition=pset, binding=binding, iterations=iterations)


def naive_mstc(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
               capacity: float = math.inf) -> PlanOutcome:
    """Equal-count partition with greedy depot binding; no rebalancing."""
    model = LoopCostModel(loop, g, depots, capacity)
    return _bound_outcome(g, model, naive_partition(loop, len(depots)), 0)


def capacity_partition(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
                       capacity: float = math.inf) -> PlanOutcome:
    """Balanced min-max partition of the loop for k robots (MSTC*).

    The start keys and the segment size cap depend on the capacity c:
    at c = inf the naive keys and no cap; when one load per robot
    suffices the naive keys with sizes capped at c.  Otherwise the loop
    is first balanced by coverage cost into n = sum(ceil(size_i / c))
    virtual sub-partitions of at most c cells, and robot i starts at
    virtual key ``i * (n // k) + min(i, n % k)``, so runs of adjacent
    sub-partitions merge into one segment per robot.  The start keys are
    then rebalanced under the full cost model, refill excursions
    included, and bound to the depots.
    """
    if capacity != math.inf and capacity < 1:
        raise PartitionError("capacity must be >= 1")
    k, length = len(depots), len(loop)
    start, size_cap, iterations = naive_partition(loop, k), None, 0
    if capacity != math.inf:
        c = int(capacity)
        if c >= -(-length // k):
            size_cap = c
        else:
            n = sum(trips_required(s, c) for s in start.sizes())
            virtual, iterations = optimize_partition(LoopCostModel(loop), naive_partition(loop, n),
                                                     64 * n, size_cap=c)
            start = PartitionSet(keys=[virtual.keys[i * (n // k) + min(i, n % k)]
                                       for i in range(k)], loop_length=length)
    model = LoopCostModel(loop, g, depots, capacity)
    final, more = optimize_partition(model, start, 64 * k, size_cap)
    return _bound_outcome(g, model, final, iterations + more)
