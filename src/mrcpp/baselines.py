"""Depot-keyed baseline partitions and the comparison metric.

MSTC-NB keys the loop at the depot cells themselves: each robot covers
forward from its own depot until the next robot's depot.  MSTC-BO lets
each robot additionally backtrack over a tail of the arc behind its
depot; the backtracked tail sizes start at zero (identical to NB) and
are improved by coordinate descent on the maximum robot cost, so BO is
never worse than NB.  This renders the baseline's informal rule as
per-arc splits, each arc taking its split of lowest maximum cost when
that beats the current maximum by more than ``REL_TIE``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import CoveringGraph
from .partition import REL_TIE, LoopCostModel, PartitionSet, PlanOutcome, build_robot_plan
from .scene import Cell
from .stc import CoverageLoop


class BaselineError(ValueError):
    pass


def _depot_partition(loop: CoverageLoop, depots: list[Cell]
                     ) -> tuple[PartitionSet, list[int]]:
    """The partition keyed at the depots' loop positions, and its binding
    (segment index -> robot index)."""
    if not depots:
        raise BaselineError("the depot list is empty")
    entries = []
    for robot, depot in enumerate(depots):
        pos = loop.position(depot)
        if pos < 0:
            raise BaselineError(f"depot {depot} does not lie on the coverage loop")
        if any(p == pos for p, _ in entries):
            raise BaselineError(f"depot {depot} is repeated")
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
    """The first split t within ``REL_TIE`` of the lowest trial maximum off
    ``split``, if that lowest beats ``best`` by over ``REL_TIE``; else ``split``."""
    trial = trial.copy()
    trial[split] = np.inf   # the current split is no candidate
    low = trial.min()
    if not low < best * (1 - REL_TIE):
        return split
    return int(np.argmax(trial <= low * (1 + REL_TIE)))


def mstc_bo(g: CoveringGraph, loop: CoverageLoop, depots: list[Cell],
            capacity: float = math.inf) -> PlanOutcome:
    """Backtracking-optimized baseline.

    Each arc's tail may be handed to the following robot, which services
    it walking backward from behind its own depot before covering its
    forward arc.  Splits are chosen by coordinate descent, each arc's by
    ``_first_better_split``.  The costs are priced once before the first
    sweep with ``prefix_segment_costs``, MSTC-BO's cost by definition;
    each scan prices every split of an arc in O(arc), and an accepted
    split copies the two costs that moved.
    """
    pset, binding = _depot_partition(loop, depots)
    k, keys, arc_len = len(binding), pset.keys, pset.sizes()
    model = LoopCostModel(loop, g, [depots[r] for r in binding], capacity)
    splits = [0] * k
    if k > 1:
        current = model.prefix_segment_costs(keys, arc_len, np.arange(k)).tolist()
        for _ in range(8):
            before = splits.copy()
            for j in range(k):
                # robot j keeps arc_len[j] - t cells; the next robot walks those t cells first
                nxt, t = (j + 1) % k, np.arange(arc_len[j])
                own = model.prefix_segment_costs(keys[j], arc_len[j] - t, j, behind=splits[j - 1])
                taker = model.prefix_segment_costs(keys[nxt], arc_len[nxt] - splits[nxt], nxt,
                                                   behind=t)
                others = max((c for i, c in enumerate(current) if i not in (j, nxt)),
                             default=-math.inf)
                best_t = _first_better_split(np.maximum(np.maximum(own, taker), others),
                                             splits[j], max(current))
                if best_t != splits[j]:
                    splits[j] = best_t
                    current[j], current[nxt] = float(own[best_t]), float(taker[best_t])
            if splits == before:
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
