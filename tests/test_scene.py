import json
import re
import struct
import warnings

import numpy as np
import pytest

from mrcpp.rasters import (read_esri_ascii, read_mask_grid, write_esri_ascii,
                           write_mask_grid)
from mrcpp.pipeline import ScenePlanner
from mrcpp.scene import MAX_CELLS, Scene, SceneError, load_scene, save_scene
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


@pytest.mark.parametrize("text", ["0 01\n1 0\n", "0 1\n1 10\n", "00\n", "0 1.0\n",
                                  "0 -1\n", "0 x\n", "0,1\n", "0 1\n1 2 0\n",
                                  "0 1\n1\n0 a\n", "1 0\n0\xa0\x001\n"])
def test_mask_grid_entries_must_each_be_0_or_1(tmp_path, text):
    # a token such as ``01`` is two digits, not one; a bad token is named
    # before a ragged row, wherever in the file it lies
    path = tmp_path / "mask.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"mask\.txt: mask entries must be 0 or 1"):
        read_mask_grid(path)


@pytest.mark.parametrize("text", ["0 1\n1\n", "0\n1 1\n", "1 0 1\n0 1\n\n1 1 1\n"])
def test_mask_grid_rejects_ragged_rows(tmp_path, text):
    path = tmp_path / "mask.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"mask\.txt: ragged mask grid rows"):
        read_mask_grid(path)


@pytest.mark.parametrize("text", ["", "\n", " \n\t\n", "\r\n\r\n"])
def test_mask_grid_rejects_an_empty_file(tmp_path, text):
    path = tmp_path / "mask.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=r"mask\.txt: empty mask grid"):
        read_mask_grid(path)


@pytest.mark.parametrize("text", [
    "1 0 0\n0 1 1\n",
    "\n\n1 0 0\n   \n0 1 1\n\n",          # blank and space-only lines are skipped
    "1 0 0\r\n0 1 1\r\n",                # CRLF
    "1 0 0\r0 1 1\r",                    # CR alone ends a line too
    "  1\t0  0 \n\t0 1\x0c1\n",          # any whitespace between and around tokens
    "1 0 0\n0 1 1",                      # no newline at the end
    "1\xa00 0\n0 1\u20031\n",          # Unicode spaces separate tokens too
])
def test_mask_grid_reads_rows_north_first_past_blank_lines_and_line_ends(tmp_path, text):
    path = tmp_path / "mask.txt"
    path.write_bytes(text.encode())
    got = read_mask_grid(path)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, [[False, True, True], [True, False, False]])


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
    # an .asc body is nrows * ncols samples, however its lines break
    ("elevation_file", "e.asc", ASC_HEADER + "1 2\n3 4\n5 6\n"),         # a row too many
    ("elevation_file", "e.asc", ASC_HEADER + "1 2 3\n"),                 # a sample short
    ("elevation_file", "e.asc", ASC_HEADER + "1 2 3\n4 5\n"),            # ragged, one too many
    ("elevation_file", "e.asc", ASC_HEADER + "1 2\n3 4 #5\n"),           # a comment mark
    ("elevation_file", "e.asc", ASC_HEADER + "1 2\n# 0\n3 4\n"),
    ("elevation_file", "e.asc", ASC_HEADER),                            # no body
    ("elevation_file", "e.asc", ASC_HEADER + "\n \n\t\n"),
])
def test_load_scene_rejects_bad_raster_file(tmp_path, key, name, text):
    if text is not None:
        (tmp_path / name).write_text(text)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": 2, "height": 2, "depots": [[0, 0]], key: name}))
    with warnings.catch_warnings():   # and no numpy warning on the way
        warnings.simplefilter("error")
        with pytest.raises(SceneError, match=f"'{key}'.*{name}"):
            load_scene(path)


@pytest.mark.parametrize("key, value", [("ncols", "3.5"), ("ncols", "-3"), ("nrows", "-2"),
                                        ("nrows", "0"), ("ncols", "nan")])
def test_load_scene_rejects_asc_sizes_that_are_not_positive_integers(tmp_path, key, value):
    """An .asc ``ncols`` or ``nrows`` that is not a positive integer is
    named in the error, not truncated or left to numpy's reshape."""
    header = {"ncols": "3", "nrows": "2"} | {key: value}
    (tmp_path / "e.asc").write_text(
        f"ncols {header['ncols']}\nnrows {header['nrows']}\n"
        "xllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n1 2 3\n4 5 6\n")
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": 3, "height": 2, "depots": [[0, 0]],
                                "elevation_file": "e.asc"}))
    with pytest.raises(SceneError, match=f"'elevation_file'.*{key} must be a positive integer"):
        load_scene(path)


def test_esri_ascii_samples_equal_float_of_their_tokens(tmp_path):
    """Each sample of a written field grid is ``float(token)`` bit for bit,
    the first file row the northmost."""
    save_scene(generate_scene("field", seed=3, width=64, height=64), tmp_path / "s.json")
    path = tmp_path / "s_elevation.asc"
    rows = path.read_text().splitlines()[6:]
    values, _, _ = read_esri_ascii(path)
    assert values.shape == (64, 64) and len(rows) == 64
    bits = [struct.pack("<d", float(t)) for row in reversed(rows) for t in row.split()]
    assert values.astype("<f8").tobytes() == b"".join(bits)


@pytest.mark.parametrize("body", ["1 2\n3 4\n", "\n 1\t2 \n\n3 4", "1 2 3\n4\n",
                                  "1 2 3 4\n", "1\n2\n3\n4", "1 2 3\n4 ", "1_0 2\n3 4\n"])
def test_asc_body_is_one_stream_of_samples_wherever_its_lines_break(tmp_path, body):
    """ncols, not the line breaks, decides where a row begins: every layout
    gives the grid of the body's whitespace-separated tokens, north first."""
    (tmp_path / "e.asc").write_text(ASC_HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _, _ = read_esri_ascii(tmp_path / "e.asc")
    stream = np.array([float(t) for t in body.split()]).reshape(2, 2)[::-1]
    assert values.shape == (2, 2)
    assert values.tobytes() == stream.tobytes()


@pytest.mark.parametrize("width, height", [(10**20, 4), (4, 10**20), (MAX_CELLS + 1, 1),
                                           (4097, 4096)])
def test_load_scene_refuses_a_grid_past_the_cell_limit(tmp_path, width, height):
    """The size is refused before the blocked raster is allocated, so 10**20
    is no untyped numpy error and a huge document allocates nothing."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"width": width, "height": height, "depots": [[0, 0]]}))
    with pytest.raises(SceneError, match=f"'width' x 'height' is {width} x {height}, "
                                         f"past the limit of {MAX_CELLS} cells"):
        load_scene(path)
    with pytest.raises(SceneError, match="past the limit"):
        Scene(width, height, depots=[(0, 0)]).validate()


def test_scene_at_the_cell_limit_is_valid():
    Scene(MAX_CELLS, 1, depots=[(0, 0)]).validate()


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


@pytest.mark.parametrize("cell_size", [float("nan"), float("inf"), 0.0, -1.0])
def test_scene_validate_rejects_a_cell_size_that_is_not_positive_and_finite(cell_size):
    """A scene made in code is held to what ``load_scene`` asks of a
    document: nan failed later as an untraversable depot, and inf planned
    with every slope 0."""
    scene = generate_scene("random", seed=2)
    scene.cell_size = cell_size
    with pytest.raises(SceneError, match="cell_size must be positive and finite"):
        scene.validate()
    with pytest.raises(SceneError, match="cell_size must be positive and finite"):
        ScenePlanner(scene)


@pytest.mark.parametrize("doc_cell_size, asc_cell_size", [(None, 30.0), (2.0, 1.0), (0.5, 2.0)])
def test_load_scene_rejects_an_elevation_cellsize_unlike_the_scene(tmp_path, doc_cell_size,
                                                                   asc_cell_size):
    """A DEM's cellsize sets its slopes: a 30 m raster under a document
    without ``cell_size`` (1.0) would plan 30 times too steep, so the two
    must agree."""
    write_esri_ascii(tmp_path / "e.asc", np.zeros((4, 4)), cell_size=asc_cell_size)
    doc = {"width": 4, "height": 4, "depots": [[0, 0]], "elevation_file": "e.asc"}
    if doc_cell_size is not None:
        doc["cell_size"] = doc_cell_size
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    want = doc_cell_size or 1.0
    with pytest.raises(SceneError, match=rf"'elevation_file'.*cellsize {asc_cell_size!r}, "
                                         rf"but the scene's cell_size is {want!r}"):
        load_scene(path)
    # a raster of the scene's own cell size loads
    write_esri_ascii(tmp_path / "e.asc", np.zeros((4, 4)), cell_size=want)
    assert load_scene(path).cell_size == want


def test_scene_validate_out_of_bounds_depot():
    with pytest.raises(SceneError, match="outside"):
        flat_scene(4, 4, depots=[(5, 0)]).validate()


@pytest.mark.parametrize("name, raster, got", [
    ("elevation", [[0] * 4] * 4, "list"), ("blocked", [[False] * 4] * 4, "list"),
    ("landclass", np.ones((3, 4), dtype=bool), "3x4"), ("elevation", np.zeros(16), "16")])
def test_scene_validate_names_a_raster_that_is_not_an_array_of_the_grid(name, raster, got):
    # a list raster had raised AttributeError, and a 1-D elevation IndexError
    scene = Scene(4, 4, depots=[(0, 0)], **{name: raster})
    with pytest.raises(SceneError, match=f"{name} raster size mismatch: expected a 4x4 array, "
                                         f"got {got}"):
        ScenePlanner(scene)


@pytest.mark.parametrize("depot", [(0.0, 0.0), (1, 0.5), (True, 0), (0, 0, 0), 3, None])
def test_scene_validate_names_a_depot_that_is_not_two_integers(depot):
    # a float depot had raised numpy's IndexError, and 3 a TypeError in __post_init__
    with pytest.raises(SceneError, match=re.escape(f"depot {depot!r} is not a pair of integers")):
        ScenePlanner(Scene(4, 4, depots=[depot]))
    assert Scene(4, 4, depots=[(np.int64(1), 2)]).validate() is None


@pytest.mark.parametrize("depots", [3, None, {(0, 0)}])
def test_scene_validate_names_depots_that_are_not_a_sequence(depots):
    with pytest.raises(SceneError, match=re.escape(f"depots must be a list, tuple or array "
                                                   f"of (x, y) cells, got {depots!r}")):
        ScenePlanner(Scene(4, 4, depots=depots))


@pytest.mark.parametrize("depots", [[(0, 0), (1, 2)], ((0, 0), [1, 2]),
                                    np.array([[0, 0], [1, 2]])])
def test_scene_takes_depots_as_a_list_tuple_or_array(depots):
    scene = Scene(4, 4, depots=depots)
    assert scene.depots == [(0, 0), (1, 2)]
    assert scene.validate() is None


@pytest.mark.parametrize("width, height, key", [(4.5, 4, "width"), (4, "4", "height"),
                                                (0, 4, "width"), (4, -1, "height"),
                                                (True, 4, "width")])
def test_scene_validate_names_a_size_that_is_not_a_positive_integer(width, height, key):
    # 4.5 had raised numpy's TypeError in __post_init__
    value = width if key == "width" else height
    with pytest.raises(SceneError, match=f"'{key}' must be a positive integer, got {value!r}"):
        ScenePlanner(Scene(width, height, depots=[(0, 0)]))


@pytest.mark.parametrize("kind", ["random", "blocked", "field"])
def test_generate_scene_fits_more_robots_than_blocks(kind):
    """A 5x5 grid holds at most four 2x2 blocks; five robots still get
    five distinct depot cells instead of a generation error."""
    scene = generate_scene(kind, seed=0, width=5, height=5, robots=5)
    assert len(set(scene.depots)) == 5
    scene.validate()


@pytest.mark.parametrize("field, value", [("width", 0), ("width", -4), ("height", 0),
                                          ("robots", 0), ("robots", -1), ("width", 2.5),
                                          ("height", True), ("robots", "4")])
def test_generate_scene_rejects_bad_sizes(field, value):
    """A size or robot count that is given must be a positive integer: 0
    is not the default, and a negative size reaches no numpy error."""
    with pytest.raises(SceneError, match=f"{field} must be a positive integer, got {value!r}"):
        generate_scene("random", seed=0, **{field: value})


@pytest.mark.parametrize("seed", [-1, 2.7, True, "3", None])
def test_generate_scene_rejects_bad_seeds(seed):
    """The seed feeds numpy's generator, which takes only non-negative ints;
    a float or bool is not silently taken for one."""
    with pytest.raises(SceneError, match=f"seed must be a non-negative integer, got {seed!r}"):
        generate_scene("random", seed)


def test_generate_scene_none_keeps_the_defaults():
    scene = generate_scene("random", seed=0, width=None, height=None, robots=None)
    assert (scene.width, scene.height, len(scene.depots)) == (10, 10, 8)
    scene = generate_scene("random", seed=0, width=np.int64(8), robots=np.int64(3))
    assert (scene.width, scene.height, len(scene.depots)) == (8, 10, 3)
