"""The benchmark's layer probes find every function they wrap.

``bench/tracing.py`` looks up what it times by name (for example
``LoopCostModel.placement_costs``, ``balanced_cut`` and
``optimize_partition``), so renaming one of them would break
``bench/run.py --trace 1``.
"""
import importlib.util
import math
import time
from pathlib import Path

from mrcpp import partition

from conftest import loop_instance

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
    tracer = tracing.Tracer(time.process_time)
    probes = tracing.LayerProbes(tracer)
    probes.install()
    try:
        assert partition.optimize_partition is not originals[2]
        planner = loop_instance(5, 2)
        planner.plan("balanced", 2, math.inf)
    finally:
        probes.remove()
    assert (partition.LoopCostModel.placement_costs, partition.balanced_cut,
            partition.optimize_partition) == originals
    metrics = tracing.layer_metrics(tracer)
    assert metrics["partition.optimize_partition.calls"] == 1
    assert metrics["partition.placement_costs.calls"] > 0
