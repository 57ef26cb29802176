"""The benchmark's layer probes find every function they wrap, and its
graph-size counters read what they name.

``bench/tracing.py`` looks up what it times by name (for example
``LoopCostModel.placement_costs``, ``balanced_cut`` and
``optimize_partition``), so renaming one of them would break
``bench/run.py --trace 1``.
"""
import importlib.util
import math
import time
from pathlib import Path

import numpy as np

from mrcpp import partition
from mrcpp.pipeline import ScenePlanner

from conftest import loop_instance, scan_spanning_graph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_probes_install_and_remove():
    tracing = load_tracing()
    originals = (partition.LoopCostModel.placement_costs, partition.balanced_cut,
                 partition.optimize_partition)
    scene = loop_instance(5, 2).scene
    tracer = tracing.Tracer(time.process_time)
    probes = tracing.LayerProbes(tracer)
    probes.install()
    try:
        assert partition.optimize_partition is not originals[2]
        planner = ScenePlanner(scene)
        planner.plan("balanced", 2, math.inf)
    finally:
        probes.remove()
    assert (partition.LoopCostModel.placement_costs, partition.balanced_cut,
            partition.optimize_partition) == originals
    metrics = tracing.layer_metrics(tracer)
    assert metrics["partition.optimize_partition.calls"] == 1
    assert metrics["partition.placement_costs.calls"] > 0
    # the graph-size counters count nodes and edges, whatever form the
    # graphs hold them in
    tmap = planner.tmap
    blocks, edges = scan_spanning_graph(tmap, planner.config)
    assert blocks and edges
    assert metrics["graphs.H.blocks"] == len(blocks)
    assert metrics["graphs.H.edges"] == len(edges)
    assert metrics["graphs.G.nodes"] == np.count_nonzero(tmap.free)
    assert metrics["graphs.G.edges"] == len(tmap.edge_slopes) + 2 * len(blocks)
