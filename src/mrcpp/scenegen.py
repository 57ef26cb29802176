"""Seeded scene generators for demos, tests and benchmarks.

Three families:

* ``blocked``  - flat terrain with whole 2x2 blocks knocked out and the
  depots clustered at the lower-left of the covered area.
* ``random``   - small weighted terrain (smooth random elevation) with
  scattered blocked cells and randomly placed depots.
* ``field``    - large smooth synthetic terrain with a workable-region
  mask, standing in for real DEM/satellite scenes.

Depot cells are always chosen from cells that end up inside intact,
mutually connected 2x2 blocks, so every generated scene supports both
the depot-keyed baselines and the balanced planners.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import uniform_filter

from .graphs import PlannerConfig, build_spanning_graph
from .scene import Scene, SceneError
from .terrain import DEFAULT_SLOPE_THRESHOLD, merge_masks, steepness_filter

KINDS = ("blocked", "random", "field")


def _covered_cells_by_component(scene: Scene, threshold: float) -> list[list]:
    """Covered cells grouped by spanning-graph component, largest first."""
    tmap = steepness_filter(scene, threshold)
    if scene.landclass is not None:
        tmap = merge_masks(tmap, scene.landclass)
    h = build_spanning_graph(tmap, PlannerConfig(slope_threshold=threshold))
    return [[cell for b in comp for cell in h.block_cells(b)] for comp in h.components()]


def _pick_depots(cells: list, k: int, style: str, rng: np.random.Generator,
                 anchor=None) -> list:
    if style == "clustered":
        anchor = anchor or (0.0, 0.0)
        ranked = sorted(cells, key=lambda c: (abs(c[0] - anchor[0]) + abs(c[1] - anchor[1]),
                                              c[1], c[0]))
        return ranked[:k]
    idx = rng.choice(len(cells), size=k, replace=False)
    return [cells[i] for i in sorted(idx)]


def _smooth_field(rng: np.random.Generator, height: int, width: int,
                  passes: int = 3, size: int = 5) -> np.ndarray:
    field = rng.normal(0.0, 1.0, (height, width))
    for _ in range(passes):
        field = uniform_filter(field, size=size, mode="nearest")
    return field


def _scale_elevation(field: np.ndarray, cell_size: float,
                     target_p95_deg: float) -> np.ndarray:
    dx = np.abs(np.diff(field, axis=1))
    dy = np.abs(np.diff(field, axis=0))
    grads = np.concatenate([dx.ravel(), dy.ravel()])
    p95 = np.percentile(grads, 95) if grads.size else 1.0
    if p95 <= 0:
        return field
    return field * (math.tan(math.radians(target_p95_deg)) * cell_size / p95)


def generate_scene(kind: str, seed: int, width: int | None = None,
                   height: int | None = None, robots: int | None = None,
                   depot_style: str | None = None,
                   threshold: float = DEFAULT_SLOPE_THRESHOLD) -> Scene:
    """Generate a planner-ready scene; deterministic in (kind, seed, dims)."""
    if kind not in KINDS:
        raise SceneError(f"unknown scene kind '{kind}' (choose from {KINDS})")
    for attempt in range(24):
        rng = np.random.default_rng(int(seed) * 1000003 + attempt)
        scene = _generate_once(kind, rng, width, height, robots, depot_style, threshold)
        if scene is not None:
            return scene
    raise SceneError(f"could not generate a valid '{kind}' scene from seed {seed}")


def _generate_once(kind, rng, width, height, robots, depot_style, threshold):
    if kind == "blocked":
        width = width or 16
        height = height or 16
        robots = robots or 4
        depot_style = depot_style or "clustered"
        blocked = np.zeros((height, width), dtype=bool)
        for by in range(height // 2):
            for bx in range(width // 2):
                if (bx, by) != (0, 0) and rng.random() < 0.15:
                    blocked[2 * by:2 * by + 2, 2 * bx:2 * bx + 2] = True
        scene = Scene(width=width, height=height, blocked=blocked)
    elif kind == "random":
        width = width or 10
        height = height or 10
        robots = robots or 8
        depot_style = depot_style or "scattered"
        blocked = rng.random((height, width)) < 0.08
        elevation = _scale_elevation(_smooth_field(rng, height, width, passes=2, size=3),
                                     1.0, target_p95_deg=18.0)
        scene = Scene(width=width, height=height, blocked=blocked, elevation=elevation)
    else:  # field
        width = width or 256
        height = height or 256
        robots = robots or 16
        depot_style = depot_style or "clustered"
        ys, xs = np.mgrid[0:height, 0:width]
        elevation = np.zeros((height, width))
        for _ in range(18):
            cx, cy = rng.uniform(0, width), rng.uniform(0, height)
            sigma = rng.uniform(0.06, 0.22) * max(width, height)
            amp = rng.uniform(-1.0, 1.0)
            elevation += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma ** 2))
        elevation = _scale_elevation(elevation, 1.0, target_p95_deg=16.0)
        landclass = uniform_filter(rng.random((height, width)), size=15,
                                   mode="nearest") > 0.47
        scene = Scene(width=width, height=height, elevation=elevation,
                      landclass=landclass)
    groups = _covered_cells_by_component(scene, threshold)
    if not groups:
        return None
    cells = groups[0]
    if len(cells) < 4 * robots:
        return None
    anchor = None
    if kind == "field":
        anchor = (width * 0.3, height * 0.5)
    depots = _pick_depots(cells, robots, depot_style, rng, anchor)
    scene.depots = [tuple(d) for d in depots]
    try:
        scene.validate()
    except SceneError:
        return None
    return scene
