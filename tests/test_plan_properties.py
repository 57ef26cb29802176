"""End-to-end properties of every strategy's plans on generated scenes."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mrcpp.partition import build_robot_plan
from mrcpp.pipeline import STRATEGIES, ScenePlanner
from mrcpp.scenegen import generate_scene


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


@settings(max_examples=20, deadline=None)
@given(requests())
def test_every_strategy_plans_a_valid_cover(request):
    """Each loop cell is serviced exactly once, each robot's trips and
    refills follow the capacity, and the reported maximum weight is the
    largest weight of the plans rebuilt from the serviced runs."""
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
        rebuilt = [build_robot_plan(p.robot, p.depot, p.runs, capacity, g).weight
                   for p in plans]
        assert result.max_weight == max(rebuilt), algorithm
