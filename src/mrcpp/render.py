"""SVG rendering of scenes and plan documents.

Cells are drawn on a unit grid scaled by ``CELL_PX`` pixels; the scene's
y axis points north, so rows are flipped for SVG space.  Robot paths are
polylines through cell centers in per-robot colors; refill excursions
are dashed; depots are stars; blocked cells are crossed out.
"""
from __future__ import annotations

import math
import operator
import reprlib
from pathlib import Path

import numpy as np

from .scene import Scene

CELL_PX = 24.0
PALETTE = (
    "#d62728", "#9467bd", "#1f77b4", "#2ca02c", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a",
)


class RenderError(ValueError):
    pass


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise RenderError(f"{what} holds {reprlib.repr(value)}, not an object")
    return value


def _list(value, what: str):
    # a document not yet written holds tuples and arrays where its file has lists
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise RenderError(f"{what} holds {reprlib.repr(value)}, not a list")
    return value


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


class _Svg:
    def __init__(self, width: float, height: float):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
        ]

    def add(self, element: str):
        self.parts.append(element)

    def polyline(self, points, stroke, width=2.0, dashed=False, opacity=1.0):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.add(f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
                 f'stroke-width="{_fmt(width)}" stroke-linejoin="round" '
                 f'stroke-linecap="round" opacity="{opacity}"{dash}/>')

    def line(self, x1, y1, x2, y2, stroke, width=1.0):
        self.add(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                 f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.add(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                 f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}"/>')

    def polygon(self, points, fill, stroke="black"):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.add(f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
                 f'stroke-width="0.8"/>')

    def text(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _star(cx: float, cy: float, radius: float) -> list:
    pts = []
    for i in range(10):
        r = radius if i % 2 == 0 else radius * 0.45
        a = math.pi / 2 + i * math.pi / 5
        pts.append((cx + r * math.cos(a), cy - r * math.sin(a)))
    return pts


def render_plan_svg(scene: Scene, plan_doc: dict) -> str:
    """Render a plan document over its scene as an SVG string; a document
    of the wrong shape raises a ``RenderError`` that names the field."""
    _object(plan_doc, "the plan document")
    meta = _object(plan_doc.get("scene", {}), "scene")
    plans = _list(plan_doc.get("plans", []), "plans")
    if meta and (meta.get("width") != scene.width or meta.get("height") != scene.height):
        raise RenderError("plan document does not match the scene dimensions")
    W, H = scene.width * CELL_PX, scene.height * CELL_PX

    def center(cell, plan: int | None = None, field: str = "") -> tuple:
        try:
            x, y = map(operator.index, cell)
        except (TypeError, ValueError):
            raise RenderError(f"plan {plan}: {field} holds {cell!r}, "
                              "not a cell [x, y] of two integers") from None
        return ((x + 0.5) * CELL_PX, (scene.height - 1 - y + 0.5) * CELL_PX)

    svg = _Svg(W, H)
    svg.rect(0, 0, W, H, "white")
    for gx in range(scene.width + 1):
        svg.line(gx * CELL_PX, 0, gx * CELL_PX, H, "#dddddd", 0.5)
    for gy in range(scene.height + 1):
        svg.line(0, gy * CELL_PX, W, gy * CELL_PX, "#dddddd", 0.5)
    for y in range(scene.height):
        for x in range(scene.width):
            if scene.blocked[y, x]:
                cx, cy = center((x, y))
                r = CELL_PX * 0.3
                svg.rect(cx - CELL_PX / 2, cy - CELL_PX / 2, CELL_PX, CELL_PX, "#f0f0f0")
                svg.line(cx - r, cy - r, cx + r, cy + r, "#555555", 1.2)
                svg.line(cx - r, cy + r, cx + r, cy - r, "#555555", 1.2)

    for i, plan in enumerate(plans):
        if "depot" not in _object(plan, f"plan {i}"):
            raise RenderError(f"plan {i}: depot is missing")
        color = PALETTE[i % len(PALETTE)]
        if "runs" in plan:
            runs = [(f"runs[{r}]", run)
                    for r, run in enumerate(_list(plan["runs"], f"plan {i}: runs"))]
        else:
            runs = [("path", plan.get("path", []))]
        for field, run in runs:
            if len(_list(run, f"plan {i}: {field}")) >= 2:
                svg.polyline([center(c, i, field) for c in run], color, width=CELL_PX * 0.1)
        for j, trip in enumerate(_list(plan.get("refills", []), f"plan {i}: refills")):
            field = f"refills[{j}].outbound"
            leg = _list(_object(trip, f"plan {i}: refills[{j}]").get("outbound", []),
                        f"plan {i}: {field}")
            if len(leg) >= 2:
                svg.polyline([center(c, i, field) for c in leg],
                             color, width=CELL_PX * 0.06, dashed=True, opacity=0.7)

    for i, plan in enumerate(plans):
        cx, cy = center(plan["depot"], i, "depot")
        svg.polygon(_star(cx, cy, CELL_PX * 0.38), "#ffd700")
    if not plans:
        for depot in scene.depots:
            cx, cy = center(depot)
            svg.polygon(_star(cx, cy, CELL_PX * 0.38), "#ffd700")
    return svg.text()


def save_plan_svg(scene: Scene, plan_doc: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_plan_svg(scene, plan_doc))
    return path
