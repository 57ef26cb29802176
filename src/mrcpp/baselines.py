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
from .partition import (LoopCostModel, PartitionSet, PlanOutcome,
                        _plans_from_partition, build_robot_plan)
from .scene import Cell
from .stc import CoverageLoop


class BaselineError(ValueError):
    pass


def _depot_arcs(loop: CoverageLoop, depots: list[Cell]) -> list[tuple[int, int]]:
    """(loop position, robot id) per depot, sorted along the loop."""
    entries = []
    for robot, depot in enumerate(depots):
        pos = loop.position(depot)
        if pos < 0:
            raise BaselineError(f"depot {depot} does not lie on the coverage loop")
        entries.append((pos, robot))
    entries.sort()
    return entries


def mstc_nb(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
            capacity: float = math.inf) -> PlanOutcome:
    """Non-backtracking baseline: key nodes are the depot positions."""
    entries = _depot_arcs(loop, depots)
    binding = [robot for _, robot in entries]
    pset = PartitionSet(keys=[pos for pos, _ in entries], loop_length=len(loop))
    plans = _plans_from_partition(loop, pset, binding, depots, capacity, g)
    pset.weights = [plans[robot].weight for robot in binding]
    return PlanOutcome(plans=plans, partition=pset, binding=binding, iterations=0)


def mstc_bo(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
            capacity: float = math.inf) -> PlanOutcome:
    """Backtracking-optimized baseline.

    Each arc's tail may be handed to the following robot, which services
    it walking backward from behind its own depot before covering its
    forward arc.  Splits are chosen by coordinate descent, accepting a
    split only when the maximum robot cost strictly decreases.
    """
    entries = _depot_arcs(loop, depots)
    k, length = len(entries), len(loop)
    binding = [robot for _, robot in entries]
    pset = PartitionSet(keys=[pos for pos, _ in entries], loop_length=length)
    keys, arc_len = pset.keys, pset.sizes()
    model = LoopCostModel(loop, g, [depots[r] for r in binding], capacity)
    splits = [0] * k

    def robot_cost(j: int, split_vec: list[int]) -> float:
        # robot j services the tail split off the arc behind it, then its own arc
        return model.segment_cost_at(keys[j], arc_len[j] - split_vec[j], j,
                                     behind=split_vec[(j - 1) % k])

    if k > 1:
        current = [robot_cost(j, splits) for j in range(k)]
        for _ in range(8):
            changed = False
            for j in range(k):
                nxt = (j + 1) % k
                # every split t of arc j at once: robot j keeps arc_len[j] - t
                # cells, robot nxt services the t cells behind its depot
                t = np.arange(arc_len[j])
                trial = np.maximum(
                    model.segment_costs(keys[j], arc_len[j] - t, j,
                                        behind=splits[(j - 1) % k]),
                    model.segment_costs(keys[nxt], arc_len[nxt] - splits[nxt], nxt,
                                        behind=t))
                others = [current[i] for i in range(k) if i not in (j, nxt)]
                if others:
                    trial = np.maximum(trial, max(others))
                best_t, best_max = splits[j], max(current)
                for t, trial_max in enumerate(trial.tolist()):
                    if t != splits[j] and trial_max < best_max - 1e-12:
                        best_t, best_max = t, trial_max
                if best_t != splits[j]:
                    splits[j] = best_t
                    current = [robot_cost(j, splits) for j in range(k)]
                    changed = True
            if not changed:
                break

    plans = []
    for j, (pos, robot) in enumerate(entries):
        behind = splits[(j - 1) % k]
        runs = [(pos - 1, behind, -1), (pos, arc_len[j] - splits[j], 1)]
        plans.append(build_robot_plan(robot, depots[robot], loop, runs, capacity, g))
    plans.sort(key=lambda p: p.robot)
    pset.weights = [p.weight for p in plans]
    return PlanOutcome(plans=plans, partition=pset, binding=binding, iterations=0)


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
