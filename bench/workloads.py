"""Benchmark workloads: which scenes are generated and which requests run.

A workload is a fixed set of scene specs plus the planning requests
served on every scene.  Each scene is planned by one ``ScenePlanner``,
the way ``mrcpp plan`` does it.  The seed shuffles the order of the
scenes and of the requests: plans must not depend on that order, while
the shortest-path cache inside a ``ScenePlanner`` makes the first request
to use a depot pay for its solve.  The scenes themselves do not depend
on the seed, because the work per scene varies too much from one
generated scene to the next for a run-to-run bound to resolve (on
``field`` 96x96 and a 2-vCPU virtual machine, seeds 11-15 took
16.4-24.1 s for the same requests).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

ALGORITHMS = ("mstc-nb", "mstc-bo", "naive", "balanced")
FIELD_SEED = 3       # the 256x256 fixture of the ROADMAP baseline
SMALL_SEEDS = range(20)


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    seed: int
    size: int

    @property
    def scene_id(self) -> str:
        return f"{self.kind}{self.size}-s{self.seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: tuple              # SceneSpec per scene
    requests: tuple            # (algorithm, robots, capacity) per scene
    render: str | None         # algorithm whose plan is also drawn as SVG

    def ordered(self, seed: int) -> tuple[list, list]:
        """Scenes and requests in the order a run with ``seed`` serves them."""
        rng = random.Random(seed)
        scenes, requests = list(self.scenes), list(self.requests)
        rng.shuffle(scenes)
        rng.shuffle(requests)
        return scenes, requests


WORKLOADS = {w.name: w for w in (
    Workload(
        name="field256-inf",
        scenes=(SceneSpec("field", FIELD_SEED, 256),),
        requests=tuple((a, k, math.inf) for a in ALGORITHMS for k in (4, 16)),
        render=None,
    ),
    Workload(
        name="field96-capacity",
        scenes=(SceneSpec("field", FIELD_SEED, 96),),
        requests=tuple((a, k, c) for a in ALGORITHMS for k in (4, 16)
                       for c in (60.0, 25.0)),
        render=None,
    ),
    Workload(
        name="small-scenes-cold",
        scenes=tuple(SceneSpec(kind, seed, size) for seed in SMALL_SEEDS
                     for kind, size in (("random", 10), ("blocked", 16), ("field", 32))),
        requests=tuple((a, 4, math.inf) for a in ALGORITHMS),
        render="balanced",
    ),
)}

