"""End-to-end planning: scene -> traversability -> graphs -> loop -> plans.

``ScenePlanner`` performs the shared pre-computation once (slope filter,
covering/spanning graphs, spanning tree, coverage loop) and then serves
any number of (algorithm, robots, capacity) planning requests on top of
it, which keeps parameter sweeps cheap.
"""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

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

    def __init__(self, scene: Scene, config: PlannerConfig | None = None):
        self.scene = scene
        self.config = config or PlannerConfig()
        scene.validate()
        self.tmap = build_traversability(scene, self.config.slope_threshold)
        self.graph: CoveringGraph = build_covering_graph(self.tmap, self.config,
                                                         scene.depots)
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
        covered, free = 4 * len(self.spanning), len(self.graph)
        self.coverage = {"covered_cells": covered, "free_cells": free, "ratio": covered / free}

    def depots(self, k: int) -> list:
        if len(self.scene.depots) < k:
            raise PlanningError(
                f"scene provides {len(self.scene.depots)} depots, need {k}"
            )
        return self.scene.depots[:k]

    def plan(self, algorithm: str, robots: int,
             capacity: float = math.inf) -> PlanResult:
        if algorithm not in STRATEGIES:
            raise PlanningError(f"unknown algorithm '{algorithm}'")
        if isinstance(robots, bool) or not isinstance(robots, int) or robots < 1:
            raise PlanningError(f"robots must be a positive integer, got {robots!r}")
        if capacity != math.inf and not (isinstance(capacity, (int, float))
                                         and capacity >= 1
                                         and float(capacity).is_integer()):
            raise PlanningError(
                f"capacity must be a positive integer or inf, got {capacity!r}")
        module, name = STRATEGIES[algorithm]
        outcome = getattr(module, name)(self.graph, self.loop, self.depots(robots),
                                        capacity)
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
    ``result.config``, the config the plan was made with.  Cells stay
    ``(x, y)`` tuples, which ``jsontext.dumps`` writes as lists; every
    list is the document's own, so editing it leaves the plans intact.
    """
    config = result.config
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
                    "outbound": list(t.outbound),
                    "inbound": list(t.inbound),
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
        "slope_threshold": config.slope_threshold,
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

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the 0o600 of ``mkstemp``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = jsontext.dumps(doc)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
