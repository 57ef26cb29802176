"""End-to-end properties of every strategy's plans on generated scenes."""
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mrcpp.pipeline import STRATEGIES, ScenePlanner, plan_document, write_json_atomic
from mrcpp.scenegen import generate_scene

from conftest import plan_fields, reference_robot_plan


@st.composite
def requests(draw):
    kind = draw(st.sampled_from(["random", "blocked", "field"]))
    width = draw(st.sampled_from([5, 7, 9, 11]))
    height = draw(st.sampled_from([5, 7, 9, 11]))
    scene = generate_scene(kind, seed=draw(st.integers(0, 10_000)), width=width,
                           height=height, robots=draw(st.integers(1, 5)))
    k = draw(st.integers(1, len(scene.depots)))
    capacity = draw(st.sampled_from([1.0, math.inf]) | st.integers(2, 6).map(float))
    return scene, k, capacity


def _written(doc: dict) -> bytes:
    with tempfile.TemporaryDirectory() as out:
        return write_json_atomic(Path(out) / "plan.json", doc).read_bytes()


@settings(max_examples=20, deadline=None)
@given(requests())
def test_every_strategy_plans_a_valid_cover(request):
    """Each loop cell is serviced exactly once, each robot's trips and
    refills follow the capacity, every plan equals the one a cell-by-cell
    walk of its runs builds, the reported maximum weight is the largest
    of their weights, and the plan file holds the text of ``json.dumps``."""
    scene, k, capacity = request
    planner = ScenePlanner(scene)
    loop, g = planner.loop, planner.graph
    for algorithm in STRATEGIES:
        result = planner.plan(algorithm, k, capacity)
        plans = result.outcome.plans
        assert sorted(p.robot for p in plans) == list(range(k))
        serviced = [cell for p in plans for cell in p.segment]
        assert sorted(serviced) == sorted(loop.nodes), algorithm
        for p in plans:
            size = len(p.segment)
            trips = 1 if capacity == math.inf else math.ceil(size / capacity)
            assert p.trips == trips, algorithm
            assert len(p.refills) == trips - 1, algorithm
        rebuilt = [reference_robot_plan(p.robot, p.depot, p.runs, capacity, g) for p in plans]
        assert [plan_fields(p) for p in plans] == [plan_fields(p) for p in rebuilt], algorithm
        assert result.max_weight == max(p.weight for p in rebuilt), algorithm
        doc = plan_document(result, scene)
        reference = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert _written(doc) == reference.encode("ascii"), algorithm
