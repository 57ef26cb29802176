"""Scene ingestion: the raw terrain input for the planning pipeline.

A scene is a covering-cell grid with optional elevation (meters, one
sample per cell), an optional binary land-class mask (1 = workable) and
per-robot depot cells.  Cells are addressed ``(x, y)`` with the origin
at the south-west corner; rasters are numpy arrays indexed ``[y, x]``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jsontext, rasters

Cell = tuple[int, int]

MAX_CELLS = 2**24   # the largest width x height a scene may have: 16x a 1024x1024 grid


class SceneError(ValueError):
    """Raised for malformed or inconsistent scene inputs."""


@dataclass
class Scene:
    width: int
    height: int
    cell_size: float = 1.0
    elevation: np.ndarray | None = None      # meters, shape (height, width)
    blocked: np.ndarray = field(default=None)  # bool, shape (height, width)
    landclass: np.ndarray | None = None      # bool, True = workable
    depots: list[Cell] = field(default_factory=list)

    def __post_init__(self):
        # what cannot be normalised here is left for validate to name
        if self.blocked is None and _size_fault(self.width, self.height) is None:
            self.blocked = np.zeros((self.height, self.width), dtype=bool)
        if isinstance(self.depots, (list, tuple, np.ndarray)):
            self.depots = [tuple(d) if isinstance(d, (tuple, list, np.ndarray)) else d
                           for d in self.depots]

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def validate(self) -> None:
        fault = _size_fault(self.width, self.height)
        if fault:
            raise SceneError(fault)
        if not 0 < self.cell_size < math.inf:   # nan too
            raise SceneError(f"cell_size must be positive and finite, got {self.cell_size!r}")
        for name in ("blocked", "elevation", "landclass"):
            raster = getattr(self, name)
            shape = getattr(raster, "shape", None)
            if raster is not None and shape != (self.height, self.width):
                got = type(raster).__name__ if shape is None else "x".join(map(str, shape))
                raise SceneError(f"{name} raster size mismatch: expected a "
                                 f"{self.height}x{self.width} array, got {got}")
        if not isinstance(self.depots, list):
            raise SceneError(f"depots must be a list, tuple or array of (x, y) cells, "
                             f"got {self.depots!r}")
        if not self.depots:
            raise SceneError("scene needs at least one depot")
        for d in self.depots:
            x, y = d if isinstance(d, tuple) and len(d) == 2 else (None, None)
            if not (isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer))) \
                    or isinstance(x, bool) or isinstance(y, bool):
                raise SceneError(f"depot {d!r} is not a pair of integers")
            if not self.in_bounds(d):
                raise SceneError(f"depot {d} outside the grid")
            if self.blocked[y, x]:
                raise SceneError(f"depot {d} lies on a blocked cell")
            if self.landclass is not None and not self.landclass[y, x]:
                raise SceneError(f"depot {d} lies in a non-working region")
        if len(set(self.depots)) != len(self.depots):
            raise SceneError("depot cells must be distinct")


def _size_fault(width, height) -> str | None:
    """Why ``width`` x ``height`` is not the size of a scene, or None if it is."""
    for key, value in (("width", width), ("height", height)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            return f"'{key}' must be a positive integer, got {value!r}"
    if int(width) * int(height) > MAX_CELLS:
        return (f"'width' x 'height' is {width} x {height}, past the limit of "
                f"{MAX_CELLS} cells")
    return None


def _positive(path: Path, key: str, value):
    """A positive finite number field of a scene document."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise SceneError(f"{path}: '{key}' must be a positive number, got {value!r}")
    return value


def _cells(path: Path, doc: dict, key: str) -> list[Cell]:
    """The ``[x, y]`` entries of a scene document's cell list."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SceneError(f"{path}: '{key}' must be a list of [x, y] pairs, got {items!r}")
    for item in items:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in item)):
            raise SceneError(f"{path}: '{key}' entry {item!r} is not a pair of integers")
    return [(x, y) for x, y in items]


def _raster(path: Path, doc: dict, key: str, read) -> tuple[Path, object]:
    """The sidecar raster file named by ``doc[key]`` and what ``read`` makes of it."""
    name = doc[key]
    if not isinstance(name, str):
        raise SceneError(f"{path}: '{key}' must be a file name, got {name!r}")
    raster_path = path.parent / name
    try:
        return raster_path, read(raster_path)
    except (OSError, ValueError, OverflowError) as exc:
        raise SceneError(f"{path}: '{key}' file {raster_path} cannot be read: {exc}") from exc


def load_scene(path) -> Scene:
    """Load and validate a scene JSON document.

    Raster paths in the document are resolved relative to the document's
    directory.  An elevation raster's ``cellsize`` must equal the scene's
    ``cell_size`` (1.0 when the document has none), which sets its slopes.
    NODATA elevation cells are folded into the blocked set.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SceneError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SceneError(f"{path}: not a scene document (a JSON object)")
    for key in ("width", "height"):
        if key not in doc:
            raise SceneError(f"{path}: missing required field '{key}'")

    width, height = doc["width"], doc["height"]
    fault = _size_fault(width, height)   # before any raster is allocated
    if fault:
        raise SceneError(f"{path}: {fault}")
    cell_size = float(_positive(path, "cell_size", doc.get("cell_size", 1.0)))
    blocked = np.zeros((height, width), dtype=bool)
    for x, y in _cells(path, doc, "blocked"):
        if not (0 <= x < width and 0 <= y < height):
            raise SceneError(f"{path}: blocked cell ({x}, {y}) outside the grid")
        blocked[y, x] = True

    elevation = None
    if doc.get("elevation_file"):
        elev_path, (values, nodata, cellsize) = _raster(path, doc, "elevation_file",
                                                        rasters.read_esri_ascii)
        if values.shape != (height, width):
            raise SceneError(
                f"{elev_path}: elevation raster size mismatch "
                f"({values.shape[0]}x{values.shape[1]} vs {height}x{width})"
            )
        if cellsize != cell_size:
            raise SceneError(f"{path}: 'elevation_file' {elev_path} has cellsize {cellsize!r}, "
                             f"but the scene's cell_size is {cell_size!r}")
        bad = ~(np.isfinite(values) | nodata)
        if bad.any():
            y, x = np.argwhere(bad)[0].tolist()
            raise SceneError(f"{path}: 'elevation_file' {elev_path} has a non-finite "
                             f"sample at cell ({x}, {y})")
        elevation = values
        blocked |= nodata

    landclass = None
    if doc.get("landclass_file"):
        mask_path, landclass = _raster(path, doc, "landclass_file", rasters.read_mask_grid)
        if landclass.shape != (height, width):
            raise SceneError(f"{mask_path}: land-class raster size mismatch")

    scene = Scene(width=width, height=height, cell_size=cell_size,
                  elevation=elevation, blocked=blocked,
                  landclass=landclass, depots=_cells(path, doc, "depots"))
    scene.validate()
    return scene


def save_scene(scene: Scene, path) -> Path:
    """Write a scene as JSON plus sidecar rasters named after its stem."""
    path = Path(path)
    stem = path.stem
    doc = {
        "width": scene.width,
        "height": scene.height,
        "cell_size": scene.cell_size,
        "depots": [list(d) for d in scene.depots],
        "blocked": [[x, y] for y in range(scene.height) for x in range(scene.width)
                    if scene.blocked[y, x]],
    }
    if scene.elevation is not None:
        elev_name = f"{stem}_elevation.asc"
        rasters.write_esri_ascii(path.parent / elev_name, scene.elevation, scene.cell_size)
        doc["elevation_file"] = elev_name
    if scene.landclass is not None:
        mask_name = f"{stem}_landclass.txt"
        rasters.write_mask_grid(path.parent / mask_name, scene.landclass)
        doc["landclass_file"] = mask_name
    path.write_text(jsontext.dumps(doc))
    return path
