import json
import math
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcpp.jsontext import dumps
from mrcpp.pipeline import ALGORITHMS, ScenePlanner, plan_document, write_json_atomic
from mrcpp.scene import save_scene
from mrcpp.scenegen import generate_scene


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _stable_id(value) -> str:
    # repr(object()) carries a memory address, which would rename the case on every run.
    return re.sub(r"<object object at 0x[0-9a-f]+>", "object()", repr(value))


# Cell runs ([int, int] items) and their look-alikes: bools, wrong lengths, tuples.
_cell_like = st.lists(
    st.lists(st.integers() | st.booleans(), min_size=0, max_size=3)
    | st.tuples(st.integers(), st.integers())
    | st.lists(st.integers(), min_size=2, max_size=2),
    max_size=5)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text())
json_values = st.recursive(
    _scalars | _cell_like,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_dumps_equals_json_dumps(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    [True, 1],
    [[True, 1], [2, 3]],
    [[1, 2], [3, 4]],
    [[[1, 2], [3, 4]], [[5, 6]]],
    [(1, 2), [3, 4]],
    ((1, 2),),
    [[1, 2], [3, 4, 5]],
    [[1, 2], [3]],
    [[1, 2.0]],
    [[-1, 10 ** 30], [0, 0]],
    [], {}, [[]], [{}], {"a": [], "b": {}},
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-310, 1e300],
    {"k": -0.0},
    ["é", "\x00\x1f\"\\", "\ud800", "日本", "\U0001f600"],
    {"é": 1, "\n": 2, "a": 3},
    (1, "a", None, False),
    {"b": 1, "a": {"d": [1, 2], "c": (3, 4)}},
    "top", 3, 2.5, None, True, math.nan,
    {1: "int key", 2.5: "float key"},
    {True: 1, False: 2}, {None: 1},
    [np.float64(0.1), np.float64(-2.5)],
], ids=repr)
def test_dumps_edge_cases(value):
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    np.int64(3), [np.int64(3)], [[np.int64(1), 2]], {"a": {1, 2}}, {1, 2},
    {(1, 2): "tuple key"}, [object()],
], ids=_stable_id)
def test_dumps_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        dumps(value)


@pytest.fixture(scope="module")
def random_planner():
    scene = generate_scene("random", seed=4)
    return scene, ScenePlanner(scene)


@pytest.mark.parametrize("capacity", [math.inf, 3.0])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_plan_documents_written_as_json_dumps(tmp_path, random_planner, algorithm,
                                              capacity):
    scene, planner = random_planner
    doc = plan_document(planner.plan(algorithm, 3, capacity), scene, seed=4)
    refills = [t for p in doc["plans"] for t in p["refills"]]
    if capacity == math.inf:
        assert not refills and all(p["refills"] == [] for p in doc["plans"])
    else:
        assert any(t["outbound"] and t["inbound"] for t in refills)
    path = write_json_atomic(tmp_path / "plan.json", doc)
    assert path.read_bytes() == (reference(doc) + "\n").encode("ascii")


def test_comparison_report_written_as_json_dumps(tmp_path, random_planner):
    _, planner = random_planner
    doc = planner.compare(list(ALGORITHMS), 2, 3.0, scene_id="r4", seed=4).to_json_dict()
    path = write_json_atomic(tmp_path / "compare.json", doc)
    assert path.read_bytes() == (reference(doc) + "\n").encode("ascii")


def test_save_scene_written_as_json_dumps(tmp_path):
    scene = generate_scene("field", seed=1, width=12, height=10)
    scene.cell_size = 0.7
    scene.landclass = np.ones((10, 12), dtype=bool)
    path = save_scene(scene, tmp_path / "scene.json")
    text = path.read_text()
    assert "elevation_file" in text and "landclass_file" in text
    # no trailing newline, as json.dumps gives
    assert text == reference(json.loads(text))


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_write_json_atomic_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        path = write_json_atomic(tmp_path / "plan.json", {"a": 1})
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE(path.stat().st_mode)
    assert mode == 0o666 & ~umask
    assert mode == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)


def test_write_json_atomic_rejects_unserializable_without_leftovers(tmp_path):
    with pytest.raises(TypeError):
        write_json_atomic(tmp_path / "plan.json", {"cells": [[np.int64(1), 2]]})
    assert list(tmp_path.iterdir()) == []

