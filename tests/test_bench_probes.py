"""The benchmark's layer probes find every function they wrap, its
graph-size counters read what they name, and its plan validator reads G.

``bench/tracing.py`` looks up what it times by name (for example
``LoopCostModel.placement_costs``, ``balanced_cut`` and
``optimize_partition``), so renaming one of them would break
``bench/run.py --trace 1``.
"""
import math
import sys
import time

import numpy as np
import pytest
from scipy.sparse import triu

from mrcpp import partition
from mrcpp.pipeline import ScenePlanner, plan_document
from mrcpp.scenegen import generate_scene

from conftest import hop_weight, load_bench, loop_instance, scan_spanning_graph


def load_tracing():
    return load_bench("tracing")


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


def test_probes_count_shortest_path_solves_and_paths():
    # a renamed graphs.dijkstra, CoveringGraph.sssp or CoveringGraph.path
    # would leave these counters at zero, or fail to install
    tracing = load_tracing()
    planner = loop_instance(5, 2)
    tracer = tracing.Tracer(time.process_time)
    probes = tracing.LayerProbes(tracer)
    probes.install()
    # every binary-search probe of a cut is priced by placement_costs, so
    # its probe times the cuts' pricing at finite capacity too: each cut
    # prices its input and at least one probe, and every call its model
    # receives is a traced span inside the cut's span
    traced_cut, cuts = partition.balanced_cut, []

    def counted_cut(pset, min_idx, max_idx, model, *args):
        priced = []

        def placement_costs(keys):
            priced.append(keys)
            return type(model).placement_costs(model, keys)

        cut = len(tracer.spans)   # the span the cut's probe opens next
        model.placement_costs = placement_costs
        try:
            return traced_cut(pset, min_idx, max_idx, model, *args)
        finally:
            del model.placement_costs
            traced = [name for name, parent, *_ in tracer.spans[cut:] if parent == cut]
            cuts.append((len(priced), traced))

    partition.balanced_cut = counted_cut
    try:
        result = planner.plan("balanced", 2, 10.0)
        # plans take their refill legs from paths_from; path stays the
        # one-leg walk that the probe counts
        plan = next(p for p in result.outcome.plans if p.refills)
        trip = plan.refills[0]
        assert planner.graph.path(plan.depot, trip.break_cell).tolist() == trip.inbound.tolist()
    finally:
        partition.balanced_cut = traced_cut
        probes.remove()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["graphs.sssp.solves"] > 0
    assert metrics["graphs.path.calls"] == 1
    assert cuts and len(cuts) == metrics["partition.balanced_cut.calls"]
    assert all(priced >= 2 and traced == ["partition.placement_costs"] * priced
               for priced, traced in cuts)


def test_graph_oracle_matches_the_graph():
    # the validator rebuilds G from its cells, index and weights views
    validate = load_bench("validate")
    planner = loop_instance(5, 2)
    g, loop = planner.graph, planner.loop
    oracle = validate.GraphOracle(g, loop.nodes)
    upper = triu(g.matrix, k=1, format="coo")
    assert oracle.edges == dict(zip(zip(upper.row.tolist(), upper.col.tolist()),
                                    upper.data.tolist()))
    assert (oracle.matrix != g.matrix).nnz == 0
    for a, b in zip(loop.nodes, loop.nodes[1:]):
        assert oracle.edge_weight(a, b) == hop_weight(g, a, b)
    rng = np.random.default_rng(0)
    cells = g.cells
    for i, j in rng.integers(0, len(cells), (20, 2)):
        a, b = cells[i], cells[j]
        assert oracle.distance(a, b) == pytest.approx(g.distance(a, b), rel=1e-12)


def test_bench_selftest_and_validator_accept_plan_documents(monkeypatch):
    """The benchmark's self-test and plan validator read plan documents as
    ``plan_document`` makes them: a change to the document's form fails
    here, not in a benchmark run."""
    # selftest.py imports the validator as ``validate``, from its own directory
    validate = load_bench("validate")
    monkeypatch.setitem(sys.modules, "validate", validate)
    selftest = load_bench("selftest")
    assert selftest.run_selftest() == []
    scene = generate_scene("field", seed=3, width=32, height=32)
    planner = ScenePlanner(scene)
    doc = plan_document(planner.plan("balanced", 4, 3), scene)
    legs = [t[leg] for p in doc["plans"] for t in p["refills"] for leg in ("outbound", "inbound")]
    assert legs and all(isinstance(leg, np.ndarray) for leg in legs)
    oracle = validate.GraphOracle(planner.graph, planner.loop.nodes)
    assert validate.validate_plan(doc, oracle, scene.depots, 4, 3) == []
