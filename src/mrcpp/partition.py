"""Partitioning the coverage loop among k robots.

A partition is a set of k key positions on the loop; segment i runs from
key i up to (but excluding) key i+1, cyclically.  The cost of a segment
is the full robot cost: approach leg from the depot, the coverage hops,
a refill excursion to the depot after every ``capacity`` serviced cells,
and the final return leg.

Every strategy holds the capacity as whole cells per load
(``_cells_per_load``): it must be inf or a whole number of at least 1, or
``PartitionError`` is raised (2.5, 0, nan), and inf, or any capacity of
at least the cells to service, becomes that count, so nothing refills and
one integer code path serves every capacity.

The balanced optimizer starts from the naive equal-count partition and
repeatedly shifts key nodes between the currently heaviest and lightest
segments (binary search on the shift amount), never raising the maximum
segment cost; a bounded refinement then scans shifts of segment pairs by
cost gap, and last the rotations, as groups that one loop prices.
"""
from __future__ import annotations

import bisect
import heapq
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import CoveringGraph
from .scene import Cell
from .stc import CoverageLoop

# costs closer than this relative gap tie: it is just above the <= 6.7e-14 gap
# of MSTC-BO's prefix-sum costs to exact sums.  Every decision is a plain ``<``
# or scales with REL_TIE, so scaling the costs by 2**j leaves every plan as is
REL_TIE = 1e-13


class PartitionError(ValueError):
    pass


@dataclass
class PartitionSet:
    """k distinct key positions into the loop, in cyclic loop order;
    segment i = [keys[i], keys[i+1])."""
    keys: list[int]
    loop_length: int
    weights: list[float] | None = None

    def __post_init__(self):
        keys = self.keys
        if not keys:
            return
        # distinct keys in cyclic loop order descend exactly once, the wrap
        # from the last key to the first included
        if sum(map(operator.ge, keys, keys[1:])) + (keys[-1] >= keys[0]) != 1:
            raise PartitionError("key positions must be distinct and in cyclic loop order")
        if not 0 <= min(keys) <= max(keys) < self.loop_length:
            raise PartitionError("key positions outside the loop")

    def __len__(self) -> int:
        return len(self.keys)

    def sizes(self) -> list[int]:
        # (next - key - 1) mod L + 1 is L for one key, the whole loop
        k, length = len(self.keys), self.loop_length
        return [(self.keys[(i + 1) % k] - self.keys[i] - 1) % length + 1 for i in range(k)]


@dataclass
class RefillTrip:
    serviced_index: int        # 0-based position of the break cell in the serviced order
    break_cell: Cell
    # legs: read-only (m, 2) int arrays of cells [x, y]; outbound is inbound[::-1]
    outbound: np.ndarray       # break cell -> depot
    inbound: np.ndarray        # depot -> break cell
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


def _cells_per_load(capacity: float, cells: int) -> int:
    """The whole cells one load services, out of ``cells`` to service: a
    capacity of at least ``cells``, inf included, becomes ``cells``."""
    if not (capacity == math.inf or capacity >= 1 and capacity % 1 == 0):   # nan too
        raise PartitionError(f"capacity must be >= 1 and whole, or inf, got {capacity!r}")
    return int(min(capacity, cells))


def _refill_offsets(size: int, c: int) -> range:
    # break after every c serviced cells, unless the segment ends there
    return range(c - 1, size - 1, c)


def trips_required(size: int, c: int) -> int:
    return (size + c - 1) // c


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
    return leg.  Every leg with the depot at one end, a join into a run
    that starts at the depot included, is read from the depot's own
    shortest-path solve, so a plan solves no other source while its runs
    meet only at the depot; a join between two other cells is priced from
    its earlier cell.  Each trip's ``inbound`` leg is a read-only row slice
    of one array from ``CoveringGraph.paths_from`` and its ``outbound`` the
    reversed view of it, so no leg is held twice.
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
        leg = g.distance(depot, prev) if run[0] == depot else g.distance(prev, run[0])
        reach += [[leg], hops]
        cells.append(run)
        positions.append(pos)
        prev = run[-1]
    serviced = np.concatenate(positions)
    c = _cells_per_load(capacity, len(serviced))
    offsets = np.array(_refill_offsets(len(serviced), c), dtype=np.int64)
    # row i: the cost of reaching serviced cell i, then of the trip that breaks
    # there (0.0 for none); the last row is the return leg
    increments = np.zeros((len(serviced) + 1, 2))
    increments[:-1, 0] = np.concatenate(reach)
    increments[-1, 0] = g.distance(depot, prev)
    refills = []
    if offsets.size:
        x, y = loop.x[serviced[offsets]], loop.y[serviced[offsets]]
        dist, legs = g.paths_from(depot, x, y)
        costs = increments[offsets, 1] = 2.0 * dist
        refills = [RefillTrip(serviced_index=off, break_cell=cell, outbound=leg[::-1],
                              inbound=leg, cost=cost)
                   for off, cell, leg, cost in zip(offsets.tolist(), zip(x.tolist(), y.tolist()),
                                                   legs, costs.tolist())]
    weight = np.cumsum(increments.ravel())[-1]
    return RobotPlan(robot=robot, depot=depot, runs=cells, refills=refills,
                     trips=trips_required(len(serviced), c), weight=float(weight))


class LoopCostModel:
    """O(1) segment costs over one loop via prefix sums.

    With depots, a segment's cost includes approach/return legs and refill
    excursions against the greedily bound depot; without depots (the
    virtual-robot mode used under finite capacity) costs are coverage-only.
    ``capacity`` is held as whole cells per load, the loop length L at most:
    no segment exceeds L cells, so at L nothing refills.

    ``placement_costs`` prices one placement of k keys exactly, adding
    each segment's refill terms one by one, and ``placement_cost_rows`` a
    whole matrix of placements the same way, bit for bit, each row that can
    beat a bar, so every ``balanced`` decision is taken from exact costs.
    MSTC-BO alone prices with ``prefix_segment_costs``, O(1) per segment
    over arrays, a backtracked tail included, each refill sum a difference
    of the stride-c prefix sums ``refill_prefix``.  The scalar code reads the
    arrays through memoryviews, which share their memory and index to
    Python floats: numpy scalars, which indexing the arrays gives, make
    the scalar arithmetic several times slower.
    """

    def __init__(self, loop: CoverageLoop, g: CoveringGraph | None = None,
                 depots: list[Cell] | None = None, capacity: float = math.inf):
        self.loop = loop
        self.length = len(loop)
        self.capacity = _cells_per_load(capacity, self.length)
        self.prefix = np.concatenate(([0.0], np.cumsum(np.tile(loop.edge_weights, 2))))
        self._prefix = memoryview(self.prefix)
        self.depots = list(depots) if depots else None
        if self.depots is not None:
            (h, w), x, y = g.node.shape, loop.x, loop.y
            ids = np.where((x >= 0) & (x < w) & (y >= 0) & (y < h), g.node[y % h, x % w], -1)
            if (ids < 0).any():
                raise PartitionError("a loop cell is not a node of the covering graph")
            # depot r's distance to loop position p at [r, p]
            g.solve(self.depots)
            self.depot_dist = np.stack([g.sssp(d)[0][ids] for d in self.depots])
            if not np.isfinite(self.depot_dist).all():
                # the row kernel's binding masks taken pairs with inf
                raise PartitionError("a depot cannot reach every loop cell")
            self._depot_dist = [memoryview(d) for d in self.depot_dist]

    def coverage_cost(self, start: int, size: int) -> float:
        return self._prefix[start + size - 1] - self._prefix[start]

    @cached_property
    def refill_terms(self) -> np.ndarray:
        """The refill terms for finite capacity: ``[r, p]`` is
        ``2 * depot_dist[r, p % L]`` for p below 2L, so every break of a
        segment is read unwrapped.  Built in place in its one (k, 2L) array:
        doubling is exact."""
        k, length = self.depot_dist.shape
        terms = np.empty((k, 2 * length))
        np.multiply(self.depot_dist, 2.0, out=terms[:, :length])
        np.multiply(self.depot_dist, 2.0, out=terms[:, length:])
        return terms

    @cached_property
    def refill_prefix(self) -> np.ndarray:
        """Stride-c prefix sums of the refill terms, for finite capacity c:
        ``[r, p + c]`` is the sequential sum of ``2 * depot_dist[r, q % L]``
        over q = p, p - c, ... down to 0.  p runs from -c (the empty sum)
        to 2L - 1, so every break of a tail or a run is read unwrapped.
        Built in place in its one (k, rows * c) array: doubling is exact."""
        c, (k, length) = self.capacity, self.depot_dist.shape
        rows = -(-(2 * length) // c) + 1
        terms = np.zeros((k, rows * c))
        terms[:, c:c + length] = terms[:, c + length:c + 2 * length] = self.depot_dist
        terms[:, c:c + 2 * length] *= 2.0
        blocks = terms.reshape(k, rows, c)
        np.cumsum(blocks, axis=1, out=blocks)
        return terms

    def prefix_segment_costs(self, start, size, depot_idx, behind=0) -> np.ndarray:
        """MSTC-BO's cost of servicing ``behind`` cells walking backward from
        ``start - 1``, then the ``size`` cells from ``start`` forward, for
        arrays of ``start``, ``size``, ``depot_idx`` and ``behind``,
        broadcast together, in O(len).

        It adds the tail's two legs and coverage (0.0 for no tail), then the
        forward run's approach leg, coverage and return leg, then the
        tail's and the forward run's refill sums, each a difference of
        ``refill_prefix``.  Where a segment has no refill, as everywhere at
        c = L, that is the exact cost bit for bit; elsewhere the differences
        may round otherwise than adding the terms one by one does.  Tails
        must be shorter than the loop, and runs no longer.
        """
        d, length, prefix = self.depot_dist, self.length, self.prefix
        start, size, depot, behind = map(np.asarray, (start, size, depot_idx, behind))
        cost = d[depot, start]
        if behind.any():
            tail = (start - behind) % length
            tail_cost = (d[depot, (start - 1) % length]
                         + (prefix[tail + behind - 1] - prefix[tail]) + d[depot, tail])
            cost = np.where(behind > 0, tail_cost, 0.0) + cost
        cost = cost + (prefix[start + size - 1] - prefix[start])
        cost = cost + d[depot, (start + size - 1) % length]
        c = self.capacity
        refills = (behind + size - 1) // c
        if not refills.any():   # nor is refill_prefix built then
            return cost
        q, back = self.refill_prefix, behind // c
        if back.any():   # the tail's breaks at start - c, start - 2c, ...
            cost = cost + (q[depot, start + length] - q[depot, start + length - back * c])
        # the forward run's at start + (i + 1) c - 1 - behind for i = back .. refills - 1
        fwd_lo = start + (back + 1) * c - 1 - behind
        return cost + (q[depot, fwd_lo + (refills - back) * c] - q[depot, fwd_lo])

    def greedy_binding(self, starts: list[int]) -> list[int]:
        """Assign robots to segments greedily by cheapest approach leg.

        The k * k approach distances, flattened in (robot, segment) order,
        are sorted once by value, until k segments are bound; the sort is
        stable, so ties go to the lower robot, then the lower segment.
        """
        k = len(starts)
        binding, free, left = [-1] * k, [True] * k, k
        flat = self.depot_dist[:k].take(starts, axis=1)   # [robot, segment]
        for i in np.argsort(flat, axis=None, kind="stable").tolist():
            r, j = divmod(i, k)
            if free[r] and binding[j] < 0:
                binding[j], free[r], left = r, False, left - 1
                if not left:
                    break
        return binding

    def placement_costs(self, keys: list[int]) -> list[float]:
        """The exact costs of one placement of k keys, segment i from
        ``keys[i]`` up to ``keys[(i + 1) % k]``, against its greedy depot
        binding (without depots ``placement_cost_rows``' one row).  A cost
        adds the approach leg, the coverage and the return leg, then its
        refill terms one by one: ``np.cumsum`` runs along each row of the
        zero-padded terms left to right, and adding 0.0 changes no sum."""
        if self.depots is None:
            return self.placement_cost_rows(np.array([keys]), math.inf)[0].tolist()
        k, length = len(keys), self.length
        binding = self.greedy_binding(keys)
        c = self.capacity
        costs, refills = [], []
        for i, (start, robot) in enumerate(zip(keys, binding)):
            size = (keys[(i + 1) % k] - start - 1) % length + 1
            d = self._depot_dist[robot]
            costs.append(d[start] + self.coverage_cost(start, size)
                         + d[(start + size - 1) % length])
            refills.append((size - 1) // c)
        if not any(refills):
            return costs
        # row i: the cost so far, then the refill terms of the breaks at
        # keys[i] + c - 1, keys[i] + 2c - 1, ..., one strided slice of
        # ``refill_terms``, then zeros
        terms = np.zeros((k, max(refills) + 1))
        terms[:, 0] = costs
        for row, start, robot, n in zip(terms, keys, binding, refills):
            row[1:n + 1] = self.refill_terms[robot, start + c - 1:start + n * c:c]
        return np.cumsum(terms, axis=1)[:, -1].tolist()

    @cached_property
    def depot_floor(self) -> np.ndarray:
        """``[p]`` is the least depot distance to loop position p % L, p below 2L."""
        return np.tile(self.depot_dist.min(axis=0), 2)

    def placement_cost_rows(self, keys: np.ndarray, bar: float) -> np.ndarray:
        """The costs of every row of a (T, k) key matrix: each row whose
        floors are all below ``bar`` priced exactly, as ``placement_costs``
        prices it, bit for bit (every row at ``bar = inf``), and every other
        row its floors, so a row's maximum is below ``bar`` exactly when its
        exact maximum is.

        A segment's floor is ``(depot_floor[key] + coverage) +
        depot_floor[last]``, the kernel's own first two additions with
        addends no larger than the bound robot's: rounding is monotone and
        refill terms are >= 0, so it is <= the exact cost, bit for bit, at
        any capacity.  Without depots the floor is the coverage, exact.
        The greedy binding is k rounds of ``argmin`` over each row's k * k
        depot distances flattened in (robot, segment) order, so ties go
        the way ``greedy_binding``'s stable sort of that order breaks them;
        a taken robot's and a taken segment's pairs are masked with inf.
        A cost adds the approach leg, the coverage and the return leg, then
        its refill terms one by one: with the segments sorted by refill
        count, most first, step j adds the j-th term of each segment with
        more than j, a prefix that shrinks, from ``refill_terms``.
        """
        k, length = keys.shape[1], self.length
        # a segment's last cell lies its size less one, (next - key - 1) mod L, past its key
        span = (keys[:, np.arange(1, k + 1) % k] - keys - 1) % length
        last = keys + span
        coverage = self.prefix[last] - self.prefix[keys]
        if self.depots is None:
            return coverage
        low = self.depot_floor
        floor = low[keys] + coverage + low[last]
        live = np.flatnonzero((floor < bar).all(axis=1))
        if not live.size:
            return floor
        keys, span, last, coverage = keys[live], span[live], last[live], coverage[live]
        pairs = self.depot_dist[:k, keys].transpose(1, 0, 2).copy()   # [t, robot, segment]
        flat = pairs.reshape(len(live), k * k)
        binding = np.empty_like(keys)
        every = np.arange(len(live))
        for r in range(k):
            robot, segment = np.divmod(flat.argmin(axis=1), k)
            binding[every, segment] = robot
            if r < k - 1:   # the last round takes the one pair left
                pairs[every, robot, :] = np.inf
                pairs[every, :, segment] = np.inf
        d, c = self.depot_dist, self.capacity
        costs = d[binding, keys] + coverage
        costs += d[binding, last % length]
        refills = (span // c).ravel()
        most = int(refills.max())
        if most:
            order = np.argsort(-refills, kind="stable")
            acc = costs.ravel()[order]
            at = (binding * (2 * length) + keys + (c - 1)).ravel()[order]
            terms = self.refill_terms.ravel()
            # the counts descend, so searching their negations for -j counts the
            # segments with more than j refills
            for m in np.searchsorted(-refills[order], -np.arange(most)).tolist():
                acc[:m] += terms[at[:m]]
                at[:m] += c
            costs.ravel()[order] = acc
        floor[live] = costs
        return floor


def naive_partition(loop: CoverageLoop, k: int) -> PartitionSet:
    """Equal-count keys at floor(j * len / k) offsets from the loop start."""
    length = len(loop)
    if not 1 <= k <= length:
        raise PartitionError(f"cannot cut a {length}-node loop into {k} parts")
    keys = [j * length // k for j in range(k)]
    return PartitionSet(keys=keys, loop_length=length)


def _chain(k: int, min_idx, max_idx, other=False):
    """The key chain of a (min, max) segment pair with fewer keys, the
    forward one on a tie, or with ``other`` the one in the other direction.

    It is ``(first, count, sign)``: shifting the cyclic key range
    ``first, ..., first + count - 1`` (mod k) by ``sign * t`` transfers t
    nodes out of the max segment through the in-between segments (node
    counts preserved) into the min segment.  Elementwise over arrays.
    """
    forward = (min_idx - max_idx) % k            # keys max + 1, ..., min, moved back
    backward = (2 * forward > k) != other        # or keys min + 1, ..., max, moved on
    first = (max_idx + 1 + backward * (min_idx - max_idx)) % k
    return first, forward + backward * (k - 2 * forward), 2 * backward - 1


def _shift_bounds(min_size: int, max_size: int, size_cap: int) -> tuple[int, int]:
    """The shifts t that keep the min and max segments, t nodes moved from
    the max one into the min one, non-empty and within ``size_cap``."""
    return max(1 - min_size, max_size - size_cap), min(max_size - 1, size_cap - min_size)


def balanced_cut(pset: PartitionSet, min_idx: int, max_idx: int,
                 model: LoopCostModel, size_cap: int) -> PartitionSet:
    """Shift key nodes between the lightest and heaviest segments.

    Binary search on the cumulative shift: nodes move out of the heaviest
    segment through the in-between chain into the lightest, in-between
    node counts unchanged, sizes within ``size_cap`` (the loop length binds
    nothing).  Returns the probed placement with the smallest maximum
    segment cost, never worse than the input, each probe priced exactly by
    ``placement_costs``.
    """
    if min_idx == max_idx:
        raise PartitionError("min and max segments must differ")
    length = pset.loop_length
    base = list(pset.keys)
    sizes = pset.sizes()
    k = len(base)
    first, count, sign = _chain(k, min_idx, max_idx)
    moving = [(first + j) % k for j in range(count)]
    lo, hi = _shift_bounds(sizes[min_idx], sizes[max_idx], size_cap)

    def probe(shift: int) -> tuple[list[int], list[float]]:
        shift = min(max(shift, lo), hi)
        keys = list(base)
        for idx in moving:
            keys[idx] = (base[idx] + sign * shift) % length
        return keys, model.placement_costs(keys)

    best_keys, best = probe(0)
    left, right = 0, sizes[min_idx] + sizes[max_idx]
    ref = (left + right) // 2   # probe shifts are midpoints relative to this
    while left < right:
        mid = (left + right) // 2
        keys, costs = probe(mid - ref)
        if max(costs) < max(best):
            best_keys, best = keys, costs
        if costs[min_idx] < costs[max_idx]:
            left = mid + 1
        else:
            right = mid - 1
    return PartitionSet(keys=best_keys, loop_length=length, weights=best)


def _greedy_pass(model: LoopCostModel, current: PartitionSet, max_iters: int,
                 size_cap: int) -> tuple[PartitionSet, int]:
    """The outer greedy loop: rebalance the heaviest/lightest pair until stuck."""
    iterations = 0
    while iterations < max_iters:
        weights = current.weights
        cur_max, cur_min = max(weights), min(weights)
        if not cur_max - cur_min > REL_TIE * cur_max:   # nan when every cost is inf
            break
        candidate = balanced_cut(current, weights.index(cur_min),
                                 weights.index(cur_max), model, size_cap)
        iterations += 1
        new_max = max(candidate.weights)
        if new_max <= cur_max:
            current = candidate
        if cur_max - new_max <= REL_TIE * cur_max:
            break
    return current, iterations


def _pairs_by_gap(weights: list[float], sizes: list[int], size_cap: int
                  ) -> Iterator[tuple[int, int, int, int]]:
    """The ordered segment pairs (mn, mx) with a nonzero shift within
    ``_shift_bounds``, by cost gap ``weights[mn] - weights[mx]``, ties
    broken by (mn, mx), as tuples ``(mn, mx, lo, hi)``, lazily.

    A shift needs room in the segment that grows, so row mn pairs with
    every segment when it is below the size cap, else with those below it.
    A row walks its columns heaviest first, ties by index, so its gaps
    never decrease, and a heap merges the rows by (gap, mn).  A popped row
    emits its run of columns at that gap in index order, then goes back
    with its next gap.  Float rounding can give distinct weights one gap,
    so a run over several weights is sorted; a run of one weight is in
    order already.  That takes O(k log k + pairs visited) time.
    """
    w = weights
    heavy = sorted(range(len(w)), key=lambda i: (-w[i], i))
    heavy_below = [i for i in heavy if sizes[i] < size_cap]
    columns = [heavy if s < size_cap else heavy_below for s in sizes]
    heap = [(w[mn] - w[cols[0]], mn, 0) for mn, cols in enumerate(columns) if cols]
    heapq.heapify(heap)
    while heap:
        gap, mn, first = heapq.heappop(heap)
        cols, w_mn, end = columns[mn], w[mn], first + 1
        while end < len(cols) and w_mn - w[cols[end]] == gap:
            end += 1
        run = cols[first:end]
        if w[run[0]] != w[run[-1]]:
            run.sort()
        for mx in run:
            lo, hi = _shift_bounds(sizes[mn], sizes[mx], size_cap)
            if mx != mn and lo <= hi and (lo, hi) != (0, 0):
                yield mn, mx, lo, hi
        if end < len(cols):
            heapq.heappush(heap, (w_mn - w[cols[end]], mn, end))


def _scan_groups(current: PartitionSet, size_cap: int) -> Iterator[tuple[tuple, range, range]]:
    """The refinement scan's candidate groups in order, as (chains, below,
    above), rows the shifts t in ``below``, then ``above``, along each chain
    in turn (t = 0, no move, lies between): each pair of ``_pairs_by_gap``
    along both its ``_chain``s, then the rotations, a plateau escape."""
    k = len(current.keys)
    for mn, mx, lo, hi in _pairs_by_gap(current.weights, current.sizes(), size_cap):
        yield ((_chain(k, mn, mx), _chain(k, mn, mx, True)),
               range(lo, min(hi, -1) + 1), range(max(lo, 1), hi + 1))
    yield ((0, k, 1),), range(0), range(1, current.loop_length)


# a batched scan prices at most this many keys per ``placement_cost_rows``
# call, which bounds the memory of its (rows, k, k) binding array
SCAN_CHUNK_KEYS = 1 << 14
# and at most this many keys, in whole pairs, in its first call (64 rows at
# k = 4, where a call costs about 75 µs plus 0.5 µs a row, so the rows it may
# price past the pair that ends the scan cost about one call more); over the
# 1,101 scans of 60 small scenes, 4, 128, 512 and 1,024 keys were 1-19% slower
SCAN_FIRST_KEYS = 256


def _scan_improvement(model: LoopCostModel, current: PartitionSet, size_cap: int,
                      budget: int) -> tuple[PartitionSet | None, int]:
    """Scan the ``_scan_groups`` for the best strictly improving placement
    within ``budget`` evaluations, one per row; returns it, or None, and
    the evaluations charged.  The scan ends with the first group that has
    a strictly better row.

    One loop prices every group: each call takes whole groups, up to a row
    count that starts at ``SCAN_FIRST_KEYS`` keys and doubles per call, or
    the next group alone, in chunks of at most ``SCAN_CHUNK_KEYS`` keys;
    its shifts are one ragged ``arange``, cut at the budget.  Replaying the
    rows in order keeps the result independent of the chunking.  A row's
    maximum exact cost must be below the bar, the current maximum less a
    ``REL_TIE`` gap, for the first row taken, and the best row's after it;
    ``placement_cost_rows`` prices exactly only the rows that can be below
    it.  Costs are sums of non-negative terms, so at a current maximum of
    0.0 nothing is scanned.
    """
    k, length = len(current.keys), current.loop_length
    base = np.array(current.keys)
    bar = max(current.weights) * (1 - REL_TIE)
    if bar <= 0.0:
        return None, 0
    chunk = max(1, SCAN_CHUNK_KEYS // k)
    best = None   # the keys, costs and maximum cost of the best row
    charged = 0
    groups = _scan_groups(current, size_cap)
    group, target = next(groups), max(1, SCAN_FIRST_KEYS // k)
    while group is not None and best is None and charged < budget:
        # range j holds the shifts from start[j] on, size[j] of them, along
        # chains[j // 2] (its below and above ranges); ends[g + 1] is where
        # group g's rows end, the rows past the budget counted
        chains, start, size, ends, left = [], [], [], [0], budget - charged
        while group is not None and ends[-1] < left:
            group_chains, below, above = group
            n = len(group_chains) * (len(below) + len(above))
            if len(ends) > 1 and ends[-1] + n > target:
                break
            for move in group_chains:
                chains.append(move)
                start += [below.start, above.start]
                size += [len(below), len(above)]
            ends.append(ends[-1] + n)
            group = next(groups, None)
        target = min(2 * target, chunk)
        first, count, sign = np.array(chains).T
        moves = np.where((np.arange(k) - first[:, None]) % k < count[:, None], sign[:, None], 0)
        size, stop = np.array(size), min(ends[-1], left)
        chain = np.repeat(np.arange(len(size)) // 2, size)[:stop]
        t = (np.arange(ends[-1]) - np.repeat(np.cumsum(size) - size - start, size))[:stop]
        end = 0
        while end < stop:
            begin, end = end, min(end + chunk, stop)
            keys = (base + moves[chain[begin:end]] * t[begin:end, None]) % length
            costs = model.placement_cost_rows(keys, bar)
            top = costs.max(axis=1)
            for i in np.flatnonzero(top < bar).tolist():
                if begin + i >= stop:
                    break
                if best is None:   # the scan ends with this group
                    stop = min(stop, ends[bisect.bisect_right(ends, begin + i)])
                elif not top[i] < best[2]:
                    continue
                best = keys[i].tolist(), costs[i].tolist(), top[i]
        charged += stop
    if best is None:
        return None, charged
    return PartitionSet(keys=best[0], loop_length=length, weights=best[1]), charged


def _refine(model: LoopCostModel, current: PartitionSet, size_cap: int,
            budget: int, memo: dict) -> tuple[PartitionSet, int]:
    """Scan until a scan finds no improvement or ``budget`` evaluations are
    spent; returns the placement and the budget left.

    ``memo`` maps the start keys of every scan that ended with budget left
    to the evaluations it charged and the keys and weights it returned, or
    None.  Such a scan runs the same from any budget that covers its
    charge, so it is replayed when one does.
    """
    while budget > 0:
        start = tuple(current.keys)
        charged, found = memo.get(start, (math.inf, None))
        if charged > budget:
            improved, charged = _scan_improvement(model, current, size_cap, budget)
            found = None if improved is None else (tuple(improved.keys),
                                                   tuple(improved.weights))
            if charged < budget:
                memo[start] = (charged, found)
        budget -= charged
        if found is None:
            break
        current = PartitionSet(keys=list(found[0]), loop_length=current.loop_length,
                               weights=list(found[1]))
    return current, budget


def _eval_limit(k: int, length: int) -> int:
    """The placement evaluations the refinement of k keys may charge."""
    return max(2000, min(50_000, 400_000 // (k * max(1, length // 8))))


def optimize_partition(model: LoopCostModel, initial: PartitionSet,
                       size_cap: int) -> tuple[PartitionSet, int]:
    """Balance a partition: greedy binary-search cuts plus bounded refinement.

    The primary greedy pass makes at most 64 cuts per key.  After it, the
    ``_eval_limit`` evaluations are spent on exact pair scans and on
    restarting the greedy from rotations of the initial keys, keeping the
    best placement seen.  Small loops get an effectively exhaustive
    search; large ones a few targeted scans.  Deterministic throughout,
    and never worse than the primary greedy result.  The restarts often
    reach placements scanned before, whose scans one memo replays.
    """
    k = len(initial.keys)
    length = initial.loop_length
    costs = model.placement_costs(initial.keys)
    current = PartitionSet(keys=list(initial.keys), loop_length=length, weights=costs)
    if k == 1:
        return current, 0
    budget, memo = _eval_limit(k, length), {}

    best, iterations = _greedy_pass(model, current, 64 * k, size_cap)
    best, budget = _refine(model, best, size_cap, budget, memo)
    for rot in range(1, length):
        if budget <= 0:
            break
        keys = [(p + rot) % length for p in initial.keys]
        budget -= k
        rc = model.placement_costs(keys)
        cand = PartitionSet(keys=keys, loop_length=length, weights=rc)
        # polish-only restarts: the greedy pass would funnel most rotated
        # starts into the same basin, defeating the restart diversity
        cand, budget = _refine(model, cand, size_cap, budget, memo)
        if max(cand.weights) < max(best.weights):
            best = cand
    return best, iterations


def _bound_outcome(g: CoveringGraph, model: LoopCostModel, pset: PartitionSet,
                   iterations: int) -> PlanOutcome:
    """Bind the model's depots to the segments of ``pset`` greedily and
    build their plans."""
    binding = model.greedy_binding(pset.keys)
    plans = [build_robot_plan(robot, model.depots[robot], model.loop, [(key, size, 1)],
                              model.capacity, g)
             for key, size, robot in zip(pset.keys, pset.sizes(), binding)]
    pset.weights = [p.weight for p in plans]
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

    The start keys and the segment size cap depend on the capacity c,
    in whole cells per load of the L-cell loop (inf becomes L).  When one
    load per robot suffices, k * c >= L, they are the naive keys with
    sizes capped at c.  Otherwise the loop is first balanced by coverage
    cost into n = sum(ceil(size_i / c)) virtual sub-partitions of at most
    c cells, and robot i starts at virtual key
    ``i * (n // k) + min(i, n % k)``, so runs of adjacent sub-partitions
    merge into one segment per robot, capped at L.  The start keys are
    then rebalanced under the full cost model, refill excursions
    included, and bound to the depots.
    """
    k, length = len(depots), len(loop)
    c = _cells_per_load(capacity, length)
    start, size_cap, iterations = naive_partition(loop, k), c, 0
    if k * c < length:
        n = sum(trips_required(s, c) for s in start.sizes())
        virtual, iterations = optimize_partition(LoopCostModel(loop), naive_partition(loop, n), c)
        start = PartitionSet(keys=[virtual.keys[i * (n // k) + min(i, n % k)]
                                   for i in range(k)], loop_length=length)
        size_cap = length
    model = LoopCostModel(loop, g, depots, capacity)
    final, more = optimize_partition(model, start, size_cap)
    return _bound_outcome(g, model, final, iterations + more)
