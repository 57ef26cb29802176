import json
import math
import os
import re
import stat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mrcpp import jsontext
from mrcpp.jsontext import dump, dumps
from mrcpp.pipeline import ALGORITHMS, ScenePlanner, plan_document, write_json_atomic
from mrcpp.scene import save_scene
from mrcpp.scenegen import generate_scene


def _keys(value):
    """Every dict key in ``value``, at any depth of dicts, lists and tuples."""
    if isinstance(value, dict):
        yield from value
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _keys(item)


def reference(value, **options) -> str:
    """The package's contract in ``json.dumps``'s terms: RFC 8259 text, so
    no NaN or Infinity (``allow_nan=False`` raises ``ValueError``), and
    string keys only (any other raises ``TypeError``)."""
    if not all(isinstance(key, str) for key in _keys(value)):
        raise TypeError("keys must be str")
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False, **options)


def array_reference(value) -> str:
    """The text ``dumps`` gives a value that holds (n, 2) int arrays."""
    return reference(value, default=np.ndarray.tolist)


def _outcome(encode, value):
    """The text ``encode`` gives ``value``, or the type of error it raises."""
    try:
        return encode(value)
    except (TypeError, ValueError) as error:
        return type(error)


def _stable_id(value) -> str:
    # repr(object()) carries a memory address, which would rename the case on every run.
    return re.sub(r"<object object at 0x[0-9a-f]+>", "object()", repr(value))


# Cell runs ([int, int] items) and their look-alikes: bools, wrong lengths, tuples.
_cell_like = st.lists(
    st.lists(st.integers() | st.booleans(), min_size=0, max_size=3)
    | st.tuples(st.integers(), st.integers())
    | st.lists(st.integers(), min_size=2, max_size=2),
    max_size=5)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.none() | st.booleans() | st.integers() | _finite | st.text()
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


# Documents of many cell lists, at one depth and at several, so that the
# piece tables of one indent serve several lists; coordinates include
# negative ints and ints beyond 64 bits.
_coords = (st.integers(-300, 300) | st.integers()
           | st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64, -2 ** 100, 10 ** 30]))
_cells = st.lists(st.tuples(_coords, _coords) | st.lists(_coords, min_size=2, max_size=2),
                  min_size=1, max_size=12)
# Items that a cell list must not be taken for: wrong item type, length or
# coordinate type; ``"ab"`` and the two-key dict have length 2.
_look_alikes = (st.sampled_from([True, 1.0, "ab", {"a": 1, "b": 2}, [1, 2, 3], (4,), []])
                | st.tuples(_coords, st.booleans() | _finite | st.none())
                | st.lists(st.booleans() | _finite, min_size=2, max_size=2))


@st.composite
def _spoiled_cells(draw):
    """A cell list with one look-alike after its first cell."""
    cells = draw(_cells)
    at = draw(st.integers(1, len(cells)))
    return cells[:at] + [draw(_look_alikes)] + cells[at:]


cell_documents = st.recursive(
    _cells | _spoiled_cells(),
    lambda children: (st.lists(children, min_size=1, max_size=4)
                      | st.dictionaries(st.sampled_from("abcd"), children,
                                        min_size=1, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(cell_documents)
def test_cell_documents_equal_json_dumps(value):
    assert dumps(value) == reference(value)


class _Writes(list):
    """A text file that records each ``write`` call."""
    write = list.append


@settings(max_examples=60, deadline=None)
@given(json_values | cell_documents)
def test_dump_in_small_chunks_equals_json_dumps(value):
    writes = _Writes()
    with mock.patch.object(jsontext, "CHUNK", 16):
        dump(value, writes)
    assert "".join(writes) == reference(value) + "\n"
    assert all(len(chunk) >= 16 for chunk in writes[:-1])


def _large_document():
    """More than two chunks of text, with floats and keys that sort as text."""
    cells = [(i % 256, i // 256 - 40) for i in range(90_000)]
    return {
        "paths": [cells[i:i + 20_000] for i in range(0, len(cells), 20_000)],
        "runs": [cells[:5], [list(c) for c in cells[5:9]]],
        "weights": {"1": 0.5, "2.5": 1e300, "-3": -2.5e-300, "0.1": -0.0},
        "zeta": [[1, 2], [True, 3]],
    }


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
    [[1, 2], True], [[1, 2], 1.0], [[1, 2], "ab"], [[1, 2], {"a": 1, "b": 2}],
    [[1, 2], [True, 3]], [[1, 2], [3, 1.0]],
    {"a": [[1, 2], [3, 4]], "b": [[3, 4], [-5, 2 ** 64]], "c": {"d": [(3, 4)], "e": [[1, 2]]}},
], ids=repr)
def test_dumps_edge_cases(value):
    """The text ``json.dumps`` gives, or, for a non-finite float or a key
    that is not a string, the error the contract names."""
    assert _outcome(dumps, value) == _outcome(reference, value)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, [1.0, math.nan], {"w": [2.5, -math.inf]},
    np.float64("nan"), [[1, 2], [3, 4], {"cost": math.inf}],
], ids=repr)
def test_dumps_refuses_non_finite_floats(value):
    # the message of json.dumps(..., allow_nan=False)
    message = "Out of range float values are not JSON compliant"
    with pytest.raises(ValueError, match=message):
        json.dumps(value, allow_nan=False)
    with pytest.raises(ValueError, match=message):
        dumps(value)
    with pytest.raises(ValueError, match=message):
        dump(value, _Writes())


@pytest.mark.parametrize("value", [
    {1: "int key"}, {2.5: "float key"}, {True: 1}, {None: 1}, {"a": [{"b": {3: 1}}]},
], ids=repr)
def test_dumps_refuses_keys_that_are_not_strings(value):
    with pytest.raises(TypeError, match="keys must be str, not "):
        dumps(value)
    with pytest.raises(TypeError, match="keys must be str, not "):
        dump(value, _Writes())


@pytest.mark.parametrize("value", [
    np.int64(3), [np.int64(3)], [[np.int64(1), 2]], {"a": {1, 2}}, {1, 2},
    {(1, 2): "tuple key"}, [object()],
    [[1, 2], [3, np.int64(4)]], [[1, 2], np.int64(3)],
], ids=_stable_id)
def test_dumps_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        dumps(value)


def _leg_arrays() -> list:
    """(n, 2) int arrays as refill legs come, and the views a leg can be."""
    big = np.stack([np.arange(50_000) % 301 - 150, np.arange(50_000) // 301 - 80], axis=1)
    wide = np.arange(-30, 30).reshape(10, 6)
    return [np.zeros((0, 2), np.int32), np.zeros((0, 2), np.int64),
            np.array([[3, 4]], np.int32), np.array([[-7, 2 ** 40]], np.int64),
            big.astype(np.int32), big.astype(np.int64),
            big.astype(np.int32)[::-1], big[::-7], big[5:0:-2],
            wide[:, 2:4], wide[::-3, 4:], np.arange(20).reshape(2, 10).T,
            np.array([[1, 2], [3, 4]], np.uint16)]


def _array_document(legs: list) -> dict:
    """Legs among ties (equal weights, one leg twice, a leg beside its
    list twin) and floats, at several indents."""
    return {
        "plans": [{"inbound": leg, "outbound": leg[::-1], "weight": 2.5,
                   "runs": [leg.tolist()[:3], [[1, 2]]], "cost": [0.1, 2.5]}
                  for leg in legs],
        "shared": [legs[-1], legs[-1], [legs[0], {"x": legs[0][::-1]}]],
        "global": {"max_weight": 2.5, "total_weight": 1e300, "low": -5e-324},
    }


def test_dumps_writes_int_arrays_as_cell_lists():
    doc = _array_document(_leg_arrays())
    text = array_reference(doc)
    # compared as bools: pytest's diff of two texts of megabytes takes minutes
    same = dumps(doc) == text
    assert same
    writes = _Writes()
    with mock.patch.object(jsontext, "CHUNK", 64):
        dump(doc, writes)
    same = "".join(writes) == text + "\n"
    assert same
    assert all(len(chunk) >= 64 for chunk in writes[:-1])
    writes = _Writes()
    dump(doc, writes)
    same = "".join(writes) == text + "\n"
    assert same and len(writes) > 1


@settings(max_examples=100, deadline=None)
@given(st.lists(hnp.arrays(st.sampled_from([np.int32, np.int64]),
                           st.tuples(st.integers(0, 6), st.just(2)),
                           elements=st.integers(-2 ** 31, 2 ** 31 - 1)),
                min_size=1, max_size=4),
       st.integers(1, 40))
def test_int_array_documents_equal_json_dumps(legs, chunk):
    doc = _array_document(legs)
    assert dumps(doc) == array_reference(doc)
    writes = _Writes()
    with mock.patch.object(jsontext, "CHUNK", chunk):
        dump(doc, writes)
    assert "".join(writes) == array_reference(doc) + "\n"


@pytest.mark.parametrize("value", [
    np.zeros((3, 2)), np.zeros((0, 2), np.float32), np.arange(4), np.zeros(0, np.int32),
    np.arange(6).reshape(2, 3), np.zeros((0, 3), np.int64), np.arange(8).reshape(2, 2, 2),
    np.array([[True, False]]), np.int64(3),
], ids=repr)
def test_dumps_rejects_arrays_that_are_not_cells(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dumps({"a": [[1, 2]], "leg": value})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dump([value], _Writes())


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
        assert any(len(t["outbound"]) > 1 and len(t["inbound"]) > 1 for t in refills)
    path = write_json_atomic(tmp_path / "plan.json", doc)
    assert path.read_bytes() == (array_reference(doc) + "\n").encode("ascii")


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


def test_write_json_atomic_never_touches_the_umask(tmp_path, monkeypatch):
    # the process-wide umask is shared by every thread: setting it around a
    # write would change the mode of a file another thread creates meanwhile
    def umask(mask):
        raise AssertionError("write_json_atomic called os.umask")

    monkeypatch.setattr(os, "umask", umask)
    path = write_json_atomic(tmp_path / "plan.json", {"a": [[1, 2]]})
    assert path.read_text() == reference({"a": [[1, 2]]}) + "\n"


def test_dump_writes_a_small_document_in_one_call():
    doc = {"cells": [[1, 2], [3, 4]], "weight": 2.5}
    writes = _Writes()
    dump(doc, writes)
    assert writes == [reference(doc) + "\n"]


def test_write_json_atomic_streams_a_large_document(tmp_path):
    doc = _large_document()
    text = reference(doc) + "\n"
    assert len(text) > 2 * jsontext.CHUNK
    writes = _Writes()
    dump(doc, writes)
    assert len(writes) > 2 and all(len(chunk) >= jsontext.CHUNK for chunk in writes[:-1])
    assert "".join(writes) == text
    path = write_json_atomic(tmp_path / "plan.json", doc)
    assert path.read_bytes() == text.encode("ascii")


def test_write_json_atomic_rejects_unserializable_without_leftovers(tmp_path):
    with pytest.raises(TypeError):
        write_json_atomic(tmp_path / "plan.json", {"cells": [[np.int64(1), 2]]})
    assert list(tmp_path.iterdir()) == []
    # the bad value comes last, after more than one chunk has been written
    doc = _large_document()
    assert len(dumps(doc)) > jsontext.CHUNK
    doc["zz"] = [[1, 2], [3, np.int64(4)]]
    with pytest.raises(TypeError):
        write_json_atomic(tmp_path / "plan.json", doc)
    assert list(tmp_path.iterdir()) == []
    # nor does a non-finite float, which RFC 8259 JSON cannot hold
    doc["zz"] = {"weight": math.nan}
    with pytest.raises(ValueError):
        write_json_atomic(tmp_path / "plan.json", doc)
    assert list(tmp_path.iterdir()) == []
