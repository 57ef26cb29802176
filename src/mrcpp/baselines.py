"""Depot-keyed baseline partitions and the comparison metric.

MSTC-NB keys the loop at the depot cells themselves: each robot covers
forward from its own depot until the next robot's depot.  MSTC-BO lets
each robot additionally backtrack over a tail of the arc behind its
depot; the backtracked tail sizes start at zero (identical to NB) and
are improved by coordinate descent on the maximum robot cost, so BO is
never worse than NB.  The backtracking rule is our rendering of the
baseline's informal description: per-arc splits, accepted only when the
fleet-wide maximum cost decreases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CoveringGraph
from .partition import LoopCostModel, PartitionSet, PlanOutcome, build_robot_plan
from .scene import Cell
from .stc import CoverageLoop


class BaselineError(ValueError):
    pass


def _depot_partition(loop: CoverageLoop, depots: list[Cell]
                     ) -> tuple[PartitionSet, list[int]]:
    """The partition keyed at the depots' loop positions, and its binding
    (segment index -> robot index)."""
    entries = []
    for robot, depot in enumerate(depots):
        pos = loop.position(depot)
        if pos < 0:
            raise BaselineError(f"depot {depot} does not lie on the coverage loop")
        entries.append((pos, robot))
    entries.sort()
    binding = [robot for _, robot in entries]
    return PartitionSet(keys=[pos for pos, _ in entries], loop_length=len(loop)), binding


def _depot_keyed_outcome(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
                         capacity: float, pset: PartitionSet, binding: list[int],
                         splits: list[int]) -> PlanOutcome:
    """Plans for the depot-keyed partition: the robot of arc j services the
    ``splits[j - 1]`` cells behind its depot walking backward, then the
    first ``arc - splits[j]`` cells of its own arc."""
    plans = [build_robot_plan(robot, depots[robot], loop,
                              [(pos - 1, splits[j - 1], -1), (pos, arc - splits[j], 1)],
                              capacity, g)
             for j, (pos, arc, robot) in enumerate(zip(pset.keys, pset.sizes(), binding))]
    pset.weights = [p.weight for p in plans]
    plans.sort(key=lambda p: p.robot)
    return PlanOutcome(plans=plans, partition=pset, binding=binding, iterations=0)


def mstc_nb(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
            capacity: float = math.inf) -> PlanOutcome:
    """Non-backtracking baseline: key nodes are the depot positions."""
    pset, binding = _depot_partition(loop, depots)
    return _depot_keyed_outcome(g, loop, depots, capacity, pset, binding, [0] * len(binding))


def _first_better_split(trial: np.ndarray, split: int, best: float) -> int:
    """The split t that the first-strictly-better rule picks: walking
    t = 0, 1, ... past ``split``, it takes each t whose trial maximum is
    below the best so far (``best`` at first) minus 1e-12.

    - The best so far is ``best`` or a taken trial, so it is never below
      the running minimum of the trials; a t more than 1e-12 under that
      minimum is surely taken, and the walk restarts after the last such t.
    - After it, a taken t lies below every trial passed since, so the walk
      visits only the running minima below the restart's best - 1e-12.
    """
    trial = trial.copy()
    trial[split] = np.inf   # the walk passes over the current split
    floor = np.minimum.accumulate(np.concatenate(([best], trial[:-1])))
    sure = (trial < floor - 1e-12).nonzero()[0]
    best_t, begin = split, 0
    if sure.size:
        best_t, begin = int(sure[-1]), int(sure[-1]) + 1
        best = float(trial[best_t])
    rest = trial[begin:]
    bound = np.minimum.accumulate(np.concatenate(([best - 1e-12], rest[:-1])))
    for t in (begin + (rest < bound).nonzero()[0]).tolist():
        if trial[t] < best - 1e-12:
            best_t, best = t, float(trial[t])
    return best_t


def _split_trials(model: LoopCostModel, keys: list[int], arc_len: list[int],
                  splits: list[int], current: list[float], j: int) -> np.ndarray:
    """The maximum robot cost after each split t of arc j, in O(arc).

    Robot j keeps ``arc_len[j] - t`` cells and the next robot services
    the t cells behind its depot.  MSTC-BO's cost is by definition
    ``prefix_segment_costs``, whose refill sums are prefix-sum
    differences; their rounding lies far below the rule's 1e-12 margin.
    """
    k = len(keys)
    nxt, behind = (j + 1) % k, splits[(j - 1) % k]
    t = np.arange(arc_len[j])
    own = model.prefix_segment_costs(keys[j], arc_len[j] - t, j, behind=behind)
    taker = model.prefix_segment_costs(keys[nxt], arc_len[nxt] - splits[nxt], nxt, behind=t)
    others = max((current[i] for i in range(k) if i not in (j, nxt)), default=-math.inf)
    return np.maximum(np.maximum(own, taker), others)


def mstc_bo(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
            capacity: float = math.inf) -> PlanOutcome:
    """Backtracking-optimized baseline.

    Each arc's tail may be handed to the following robot, which services
    it walking backward from behind its own depot before covering its
    forward arc.  Splits are chosen by coordinate descent, accepting a
    split only when the maximum robot cost strictly decreases.  Each scan
    prices every split of an arc in O(arc) with ``prefix_segment_costs``.
    """
    pset, binding = _depot_partition(loop, depots)
    k, keys, arc_len = len(binding), pset.keys, pset.sizes()
    model = LoopCostModel(loop, g, [depots[r] for r in binding], capacity)
    splits = [0] * k

    def robot_costs() -> list[float]:
        # robot j services the tail split off the arc behind it, then its own arc
        s = np.array(splits)
        return model.prefix_segment_costs(keys, np.subtract(arc_len, s), np.arange(k),
                                          behind=np.roll(s, 1)).tolist()

    if k > 1:
        current = robot_costs()
        for _ in range(8):
            changed = False
            for j in range(k):
                trial = _split_trials(model, keys, arc_len, splits, current, j)
                best_t = _first_better_split(trial, splits[j], max(current))
                if best_t != splits[j]:
                    splits[j] = best_t
                    current = robot_costs()
                    changed = True
            if not changed:
                break
    return _depot_keyed_outcome(g, loop, depots, capacity, pset, binding, splits)


def reduction_ratio(base: float, candidate: float) -> float:
    """Relative decrease of the maximum weight versus a baseline."""
    if base <= 0:
        raise BaselineError("baseline weight must be positive")
    return (base - candidate) / base


@dataclass
class ComparisonReport:
    robots: int
    capacity: float
    scene_id: str
    seed: int | None
    baseline: str
    max_weights: dict[str, float]

    @property
    def reduction_ratios(self) -> dict[str, float]:
        base = self.max_weights[self.baseline]
        return {name: reduction_ratio(base, w) for name, w in self.max_weights.items()
                if name != self.baseline}

    def to_json_dict(self) -> dict:
        return {
            "robots": self.robots,
            "capacity": "inf" if self.capacity == math.inf else int(self.capacity),
            "scene_id": self.scene_id,
            "seed": self.seed,
            "baseline": self.baseline,
            "max_weights": dict(sorted(self.max_weights.items())),
            "reduction_ratios": dict(sorted(self.reduction_ratios.items())),
        }


def format_comparison_table(reports: list[ComparisonReport]) -> str:
    """Aligned text table: one row per report, one column per algorithm."""
    if not reports:
        return "(no comparison rows)"
    algos = sorted({a for r in reports for a in r.max_weights})
    header = ["k", "c"] + [f"W[{a}]" for a in algos] + \
             [f"ratio[{a}]" for a in algos if a != reports[0].baseline]
    rows = [header]
    for r in reports:
        cap = "inf" if r.capacity == math.inf else str(int(r.capacity))
        row = [str(r.robots), cap]
        row += [f"{r.max_weights.get(a, float('nan')):.3f}" for a in algos]
        ratios = r.reduction_ratios
        row += [f"{ratios[a]:+.3f}" for a in algos if a != r.baseline]
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)
