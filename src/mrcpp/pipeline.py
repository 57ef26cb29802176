"""End-to-end planning: scene -> traversability -> graphs -> loop -> plans.

``ScenePlanner`` performs the shared pre-computation once (slope filter,
covering/spanning graphs, spanning tree, coverage loop) and then serves
any number of (algorithm, robots, capacity) planning requests on top of
it, which keeps parameter sweeps cheap.
"""
from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, jsontext, partition
from .graphs import (CoveringGraph, PlannerConfig, SpanningGraph,
                     build_covering_graph, build_spanning_graph)
from .scene import Scene
from .stc import CoverageLoop, SpanningTree, minimum_spanning_tree, spiral_stc_loop
from .terrain import build_traversability

# algorithm -> (module, strategy name); every strategy is called as
# f(g, loop, depots, capacity) -> PlanOutcome.  Names are looked up at call
# time so that a wrapper installed on the module, such as the benchmark's
# layer probes, is the function called.
STRATEGIES = {
    "mstc-nb": (baselines, "mstc_nb"),
    "mstc-bo": (baselines, "mstc_bo"),
    "naive": (partition, "naive_mstc"),
    "balanced": (partition, "capacity_partition"),
}
ALGORITHMS = tuple(STRATEGIES)


class PlanningError(RuntimeError):
    pass


@dataclass
class PlanResult:
    algorithm: str
    robots: int
    capacity: float
    outcome: partition.PlanOutcome
    coverage: dict
    config: PlannerConfig     # the weighting and slope filter the plan was made with

    @property
    def max_weight(self) -> float:
        return self.outcome.max_weight

    @property
    def total_weight(self) -> float:
        return self.outcome.total_weight


class ScenePlanner:
    """Shared pipeline state for one scene and one weighting config."""

    @np.errstate(over="ignore")   # overflowing costs are refused below, with no warning
    def __init__(self, scene: Scene, config: PlannerConfig | None = None):
        self.scene = scene
        self.config = config or PlannerConfig()
        scene.validate()
        self.tmap = build_traversability(scene, self.config.slope_threshold)
        self.graph: CoveringGraph = build_covering_graph(self.tmap, self.config)
        h_full = build_spanning_graph(self.tmap, self.config)
        start = scene.depots[0]
        root = h_full.block_of(start)
        if root is None:
            raise PlanningError(
                f"depot {start} is not inside an intact 2x2 block; "
                "the coverage loop must start at the first depot"
            )
        self.spanning: SpanningGraph = h_full.component(root)
        self.tree: SpanningTree = minimum_spanning_tree(self.spanning, root)
        self.loop: CoverageLoop = spiral_stc_loop(self.graph, self.tree, start)
        self._check_finite("the coverage loop's total weight", self.loop.total_weight)
        covered, free = 4 * len(self.spanning), len(self.graph)
        self.coverage = {"covered_cells": covered, "free_cells": free, "ratio": covered / free}

    def _check_finite(self, what: str, weight: float) -> None:
        if not math.isfinite(weight):
            raise PlanningError(f"{what} is {weight}: costs overflow at alpha="
                                f"{self.config.alpha!r}, beta={self.config.beta!r}")

    def depots(self, k: int) -> list:
        if len(self.scene.depots) < k:
            raise PlanningError(
                f"scene provides {len(self.scene.depots)} depots, need {k}"
            )
        return self.scene.depots[:k]

    @np.errstate(over="ignore", invalid="ignore")   # also inf - inf in overflowed costs
    def plan(self, algorithm: str, robots: int,
             capacity: float = math.inf) -> PlanResult:
        if algorithm not in STRATEGIES:
            raise PlanningError(f"unknown algorithm '{algorithm}'")
        # numpy numbers are accepted, and stored as Python ones
        if isinstance(robots, bool) or not isinstance(robots, numbers.Integral) or robots < 1:
            raise PlanningError(f"robots must be a positive integer, got {robots!r}")
        if isinstance(capacity, bool) or not isinstance(capacity, numbers.Real) or not (
                capacity == math.inf or (capacity >= 1 and float(capacity).is_integer())):
            raise PlanningError(
                f"capacity must be a positive integer or inf, got {capacity!r}")
        robots = operator.index(robots)
        capacity = int(capacity) if isinstance(capacity, numbers.Integral) else float(capacity)
        module, name = STRATEGIES[algorithm]
        outcome = getattr(module, name)(self.graph, self.loop, self.depots(robots),
                                        capacity)
        self._check_finite("the plan's total weight", outcome.total_weight)
        return PlanResult(algorithm=algorithm, robots=robots, capacity=capacity,
                          outcome=outcome, coverage=self.coverage, config=self.config)

    def compare(self, algorithms: list[str], robots: int, capacity: float,
                scene_id: str = "scene", seed: int | None = None
                ) -> baselines.ComparisonReport:
        if len(algorithms) < 2:
            raise PlanningError("comparison needs at least two algorithms")
        weights = {}
        for algo in algorithms:
            weights[algo] = self.plan(algo, robots, capacity).max_weight
        return baselines.ComparisonReport(
            robots=robots, capacity=capacity, scene_id=scene_id, seed=seed,
            baseline=algorithms[0], max_weights=weights,
        )


def capacity_label(capacity: float) -> str:
    return "inf" if capacity == math.inf else str(int(capacity))


def plan_document(result: PlanResult, scene: Scene, scene_id: str = "scene",
                  seed: int | None = None) -> dict:
    """JSON-serializable plan document (schema used by render and tests).

    The weighting and slope threshold recorded are those of
    ``result.config``, the config the plan was made with; an infinite
    threshold is recorded as ``"inf"``.  Cells of ``path`` and ``runs``
    stay ``(x, y)`` tuples in lists that are the document's own, so
    editing them leaves the plans intact.  Each refill's ``outbound`` and
    ``inbound`` leg is the plan's own read-only (m, 2) int array, shared,
    not copied.  ``jsontext`` writes a leg as the cell list of its
    ``tolist()``, so the file holds the text it would if the legs were
    lists of cells; ``json.dumps`` of a document needs
    ``default=np.ndarray.tolist``.
    """
    config = result.config
    # JSON (RFC 8259) has no infinity: an unbounded threshold gets capacity's label
    threshold = "inf" if config.slope_threshold == math.inf else config.slope_threshold
    plans = []
    for p in result.outcome.plans:
        plans.append({
            "robot": p.robot,
            "depot": p.depot,
            "path": p.segment,
            "runs": [list(run) for run in p.runs],
            "trips": p.trips,
            "weight": p.weight,
            "refills": [
                {
                    "index": t.serviced_index,
                    "cell": t.break_cell,
                    "cost": t.cost,
                    "outbound": t.outbound,
                    "inbound": t.inbound,
                }
                for t in p.refills
            ],
        })
    return {
        "algorithm": result.algorithm,
        "robots": result.robots,
        "capacity": capacity_label(result.capacity),
        "alpha": config.alpha,
        "beta": config.beta,
        "slope_threshold": threshold,
        "seed": seed,
        "scene": {"id": scene_id, "width": scene.width, "height": scene.height},
        "coverage": result.coverage,
        "global": {
            "max_weight": result.max_weight,
            "total_weight": result.total_weight,
            "iterations": result.outcome.iterations,
        },
        "plans": plans,
    }


def write_json_atomic(path, doc: dict) -> Path:
    """Serialize deterministically and rename into place.

    The text is streamed into a temporary file beside ``path``, created
    with mode 0o666 so that the kernel applies the umask, as a plain
    ``open`` would; the process umask is never read or set.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="ascii") as fh:
            jsontext.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
