"""Self-test of the plan validator: it must flag each corrupted plan.

Plans one small scene with refills, checks that the clean plan passes,
then corrupts a copy three ways (a dropped cell, a duplicated cell, an
altered weight) and checks that each copy is flagged for that reason.
Run it alone with ``python3 bench/selftest.py``; ``run.py`` also runs
it on every benchmark run.
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

from validate import GraphOracle, validate_plan


def _drop_cell(doc, loop):
    plan = doc["plans"][0]
    plan["runs"][-1].pop()
    plan["path"].pop()


def _duplicate_cell(doc, loop):
    # extend robot 0 by the next loop cell, which another robot services,
    # so every step stays an edge of G and only the coverage is wrong
    plan = doc["plans"][0]
    last = tuple(plan["runs"][-1][-1])
    nxt = list(loop.nodes[(loop.position(last) + 1) % len(loop)])
    plan["runs"][-1].append(nxt)
    plan["path"].append(nxt)


def _alter_weight(doc, loop):
    doc["plans"][0]["weight"] += 1e-3


CORRUPTIONS = (
    ("a dropped cell", _drop_cell, "never serviced"),
    ("a duplicated cell", _duplicate_cell, "more than once"),
    ("an altered weight", _alter_weight, "!= recomputed"),
)


def run_selftest() -> list[str]:
    """Problems found; empty when the validator behaves."""
    from mrcpp import ScenePlanner, generate_scene, plan_document

    scene = generate_scene("random", seed=8)
    planner = ScenePlanner(scene)
    robots, capacity = 4, 7.0
    doc = plan_document(planner.plan("balanced", robots, capacity), scene)
    oracle = GraphOracle(planner.graph, planner.loop.nodes)
    problems = []
    clean = validate_plan(doc, oracle, scene.depots, robots, capacity)
    if clean:
        problems.append(f"clean plan flagged: {clean}")
    if not any(p["refills"] for p in doc["plans"]):
        problems.append("self-test plan has no refills to check")
    for label, corrupt, expected in CORRUPTIONS:
        bad = copy.deepcopy(doc)
        corrupt(bad, planner.loop)
        errors = validate_plan(bad, oracle, scene.depots, robots, capacity)
        if not any(expected in e for e in errors):
            problems.append(f"{label} not flagged (got {errors})")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    found = run_selftest()
    for label, _, _ in CORRUPTIONS:
        status = "FAIL" if any(p.startswith(label) for p in found) else "PASS"
        print(f"{status} validator flags a plan with {label}")
    for problem in found:
        print(f"problem: {problem}")
    sys.exit(1 if found else 0)
