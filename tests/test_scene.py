import json

import numpy as np
import pytest

from mrcpp.rasters import (read_esri_ascii, read_mask_grid, write_esri_ascii,
                           write_mask_grid)
from mrcpp.scene import Scene, SceneError, load_scene, save_scene
from mrcpp.scenegen import generate_scene

from conftest import flat_scene


def test_esri_ascii_round_trip(tmp_path):
    values = np.arange(12, dtype=float).reshape(3, 4)
    path = tmp_path / "elev.asc"
    write_esri_ascii(path, values, cell_size=2.0)
    back, nodata, cell = read_esri_ascii(path)
    assert cell == 2.0
    assert not nodata.any()
    np.testing.assert_array_equal(back, values)


def test_esri_ascii_nodata_and_orientation(tmp_path):
    path = tmp_path / "elev.asc"
    path.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"
        "1 2\n-9999 4\n"
    )
    values, nodata, _ = read_esri_ascii(path)
    # first file row is the north row -> ends up at y=1
    assert values[1, 0] == 1 and values[1, 1] == 2
    assert nodata[0, 0] and not nodata[0, 1]


def test_mask_grid_round_trip(tmp_path):
    mask = np.array([[True, False], [False, True]])
    path = tmp_path / "mask.txt"
    write_mask_grid(path, mask)
    np.testing.assert_array_equal(read_mask_grid(path), mask)


def test_mask_grid_rejects_bad_entries(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("0 2\n1 0\n")
    with pytest.raises(ValueError):
        read_mask_grid(path)


def test_load_scene_flat_4x4(tmp_path):
    doc = {"width": 4, "height": 4, "cell_size": 1.0, "depots": [[0, 0]]}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    scene = load_scene(path)
    assert scene.width == scene.height == 4
    assert scene.elevation is None
    assert not scene.blocked.any()
    assert scene.depots == [(0, 0)]


def test_load_scene_depot_on_blocked_cell(tmp_path):
    doc = {"width": 4, "height": 4, "depots": [[1, 1]], "blocked": [[1, 1]]}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneError, match="blocked"):
        load_scene(path)


def test_load_scene_elevation_size_mismatch(tmp_path):
    write_esri_ascii(tmp_path / "e.asc", np.zeros((3, 3)), cell_size=1.0)
    doc = {"width": 4, "height": 4, "depots": [[0, 0]], "elevation_file": "e.asc"}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneError, match="size mismatch"):
        load_scene(path)


def test_load_scene_rejects_duplicate_depots(tmp_path):
    doc = {"width": 4, "height": 4, "depots": [[0, 0], [0, 0]]}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneError, match="distinct"):
        load_scene(path)


@pytest.mark.parametrize("key", ["blocked", "depots"])
@pytest.mark.parametrize("entry", [[1], ["a", 2]])
def test_load_scene_rejects_malformed_cell_entry(tmp_path, key, entry):
    doc = {"width": 4, "height": 4, "depots": [[0, 0]]}
    doc[key] = doc.get(key, []) + [entry]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneError, match=f"'{key}' entry .* not a pair of integers"):
        load_scene(path)


@pytest.mark.parametrize("override, key", [
    ({"blocked": 5}, "blocked"),
    ({"depots": 7}, "depots"),
    ({"width": "a"}, "width"),
    ({"cell_size": "x"}, "cell_size"),
    ({"width": -2}, "width"),
    ({"width": 2.5}, "width"),
    ({"width": True}, "width"),
    ({"height": 0}, "height"),
    ({"height": None}, "height"),
    ({"cell_size": 0}, "cell_size"),
    ({"cell_size": float("nan")}, "cell_size"),
])
def test_load_scene_rejects_malformed_field(tmp_path, override, key):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": 4, "height": 4, "depots": [[0, 0]], **override}))
    with pytest.raises(SceneError, match=f"'{key}'"):
        load_scene(path)


ASC_HEADER = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"


@pytest.mark.parametrize("key, name, text", [
    ("elevation_file", "e.asc", None),                                  # missing
    ("landclass_file", "m.txt", None),
    ("elevation_file", 5, None),                                        # not a name
    ("elevation_file", "e.asc", ASC_HEADER + "1 2\n3\n"),               # short
    ("elevation_file", "e.asc", "ncols 2\nnrows\n"),                    # bad header
    ("elevation_file", "e.asc", ASC_HEADER.replace("2", "inf", 1) + "1 2\n3 4\n"),
    ("elevation_file", "e.asc", ASC_HEADER + "1 2\nx 4\n"),
    ("elevation_file", "e.asc", ASC_HEADER + "1 nan\n3 4\n"),           # non-finite
    ("elevation_file", "e.asc", ASC_HEADER + "1 2\n-inf 4\n"),
    ("landclass_file", "m.txt", "1 2\n0 1\n"),                          # not 0/1
    ("landclass_file", "m.txt", "\n"),
])
def test_load_scene_rejects_bad_raster_file(tmp_path, key, name, text):
    if text is not None:
        (tmp_path / name).write_text(text)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": 2, "height": 2, "depots": [[0, 0]], key: name}))
    with pytest.raises(SceneError, match=f"'{key}'.*{name}"):
        load_scene(path)


def test_load_scene_rejects_non_object_document(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text("5")
    with pytest.raises(SceneError, match="JSON object"):
        load_scene(path)


def test_save_scene_round_trip(tmp_path):
    elev = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    mask = np.ones((4, 4), dtype=bool)
    mask[3, 3] = False
    scene = Scene(width=4, height=4, depots=[(0, 0), (1, 0)], elevation=elev,
                  landclass=mask)
    path = save_scene(scene, tmp_path / "s.json")
    back = load_scene(path)
    assert back.depots == scene.depots
    np.testing.assert_allclose(back.elevation, elev)
    np.testing.assert_array_equal(back.landclass, mask)


def test_nodata_becomes_blocked(tmp_path):
    elev = np.zeros((4, 4))
    elev[2, 2] = -9999.0
    write_esri_ascii(tmp_path / "e.asc", elev, cell_size=1.0)
    doc = {"width": 4, "height": 4, "depots": [[0, 0]], "elevation_file": "e.asc"}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    scene = load_scene(path)
    assert scene.blocked[2, 2]


def test_scene_validate_out_of_bounds_depot():
    with pytest.raises(SceneError, match="outside"):
        flat_scene(4, 4, depots=[(5, 0)]).validate()


@pytest.mark.parametrize("kind", ["random", "blocked", "field"])
def test_generate_scene_fits_more_robots_than_blocks(kind):
    """A 5x5 grid holds at most four 2x2 blocks; five robots still get
    five distinct depot cells instead of a generation error."""
    scene = generate_scene(kind, seed=0, width=5, height=5, robots=5)
    assert len(set(scene.depots)) == 5
    scene.validate()
