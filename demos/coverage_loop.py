#!/usr/bin/env python3
# Generate the single-robot coverage loop on a weighted grid and compare
# the minimum spanning tree against a weight-blind tree.
from pathlib import Path

import numpy as np

from mrcpp import (PlannerConfig, Scene, build_covering_graph,
                   build_spanning_graph, minimum_spanning_tree, plan_document,
                   render_plan_svg, spiral_stc_loop)
from mrcpp.pipeline import ScenePlanner
from mrcpp.stc import SpanningTree
from mrcpp.terrain import build_traversability

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(7)
elevation = rng.normal(0.0, 0.12, (10, 10)).cumsum(axis=1)
scene = Scene(width=10, height=10, depots=[(0, 0)], elevation=elevation)
config = PlannerConfig()  # alpha=1/3, beta=2/3, threshold 25deg

tmap = build_traversability(scene, config.slope_threshold)
g = build_covering_graph(tmap, config, depots=scene.depots)
h = build_spanning_graph(tmap, config)
print(f"covering graph: {len(g)} cells, {len(g.weights)} edges")
print(f"spanning graph: {len(h)} blocks, {len(h.edges)} edges")

mst = minimum_spanning_tree(h, h.block_of((0, 0)))
loop = spiral_stc_loop(g, mst, (0, 0))
print(f"loop visits {len(loop)} cells (= 4 x {len(mst)} blocks), "
      f"weight {loop.total_weight:.2f}")


def first_neighbor_tree(h, root):
    """Depth-first tree that ignores edge weights, in H's raster form."""
    weights = h.edges
    neighbours = {b: [] for b in h.blocks}
    for a, b in weights:
        neighbours[a].append(b)
        neighbours[b].append(a)
    spanned = np.zeros_like(h.intact)
    spanned[root[1], root[0]] = True
    east, north = np.full_like(h.east, np.nan), np.full_like(h.north, np.nan)
    total, stack = 0.0, [root]
    while stack:
        node = stack.pop()
        for nbr in sorted(neighbours[node], key=lambda b: (b[1], b[0])):
            if not spanned[nbr[1], nbr[0]]:
                spanned[nbr[1], nbr[0]] = True
                (x, y), far = sorted((node, nbr), key=lambda b: (b[1], b[0]))
                w = weights[((x, y), far)]
                (east if far[1] == y else north)[y, x] = w
                total += w
                stack.append(nbr)
    return SpanningTree(spanned, east, north, total)


blind = first_neighbor_tree(h, h.block_of((0, 0)))
blind_loop = spiral_stc_loop(g, blind, (0, 0))
print(f"MST tree weight {mst.total_weight:.2f} vs weight-blind {blind.total_weight:.2f}")
print(f"MST loop weight {loop.total_weight:.2f} vs weight-blind "
      f"{blind_loop.total_weight:.2f}")

# render the single-robot plan
planner = ScenePlanner(scene, config)
result = planner.plan("balanced", 1)
doc = plan_document(result, scene, scene_id="loop-demo")
svg = OUT / "coverage_loop.svg"
svg.write_text(render_plan_svg(scene, doc))
print(f"wrote {svg}")
