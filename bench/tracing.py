"""In-memory span recorder, the host-speed probe, and the probes that time
each pipeline layer.

Spans are recorded from outside the library: ``LayerProbes`` replaces a
function by a timing wrapper under the name its caller looks it up by
(for example ``mrcpp.pipeline.build_traversability`` or
``mrcpp.graphs.dijkstra``) and puts the original back afterwards.  The
benchmark's own spans (load, set-up, plan, output) are recorded on every
run; the layer probes are installed only for the traced run.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


# The host's speed drifts by up to 40% within seconds, and CPU time drifts
# with it.  A fixed pure-Python loop, timed every REFERENCE_EVERY_S CPU
# seconds, measures that speed; end-to-end times are scaled to a host on
# which the loop takes REFERENCE_NOMINAL_S.  The loop builds and joins
# strings: it followed both planning and JSON encoding more closely than a
# loop of integer arithmetic did.
REFERENCE_ITERATIONS = 6_000
REFERENCE_NOMINAL_S = 0.001
REFERENCE_EVERY_S = 0.05
MIN_SPEED_SAMPLES = 5   # a step shorter than this many samples uses the latest ones


def reference_loop() -> str:
    parts = []
    for i in range(REFERENCE_ITERATIONS):
        parts.append(str(i * i % 9973))
    return ",".join(parts)


class SpeedProbe:
    """Samples the host's speed from a ``SIGPROF`` handler.

    The handler runs ``reference_loop`` every ``REFERENCE_EVERY_S`` CPU
    seconds, so it samples inside long steps too.  ``clock`` leaves the
    handler's own time out, so spans timed with it do not include it.
    Thread CPU time is used because the benchmark runs the program in one
    thread, and because on Linux the process CPU clock, read inside the
    handler, can lag behind the thread's.
    """

    def __init__(self):
        self.times: list[float] = []      # clock() when each sample started
        self.durations: list[float] = []  # seconds the loop took
        self.spent = 0.0

    def clock(self) -> float:
        return time.thread_time() - self.spent

    def sample(self, signum=None, frame=None) -> None:
        start = time.thread_time()
        reference_loop()
        seconds = time.thread_time() - start
        self.times.append(start - self.spent)
        self.durations.append(seconds)
        self.spent += seconds

    def start(self) -> None:
        for _ in range(MIN_SPEED_SAMPLES):  # so that the first step has samples before it
            self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """The ``clock`` interval ``[start, end]`` in seconds on the nominal host."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SPEED_SAMPLES:
            lo = max(0, hi - MIN_SPEED_SAMPLES)
        speed = REFERENCE_NOMINAL_S / statistics.median(self.durations[lo:hi])
        return (end - start) * speed


class Tracer:
    """Spans as ``[name, parent index, start, end]`` plus named counters.

    Times come from ``clock``: CPU seconds, so that time the process spends
    waiting while other work holds the shared CPUs is left out.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the body as a span; yields its index for ``duration``."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def duration(self, idx: int) -> float:
        _, _, start, end = self.spans[idx]
        return end - start

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "parent", "start_us", "end_us"],
            "spans": [[index[n], p, round((s - t0) * 1e6), round((e - t0) * 1e6)]
                      for n, p, s, e in self.spans],
            "counters": dict(sorted(self.counters.items())),
            "totals": dict(sorted(self.totals().items())),
        }


class LayerProbes:
    """Timing wrappers patched into the ``mrcpp`` modules; undone by ``remove``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr``; ``name`` may be a function of the call's args."""
        original = owner.__dict__[attr]
        tracer = self.tracer

        def probe(*args, **kwargs):
            idx = tracer.open(name(*args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, probe)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from mrcpp import baselines, graphs, partition, pipeline, terrain

        w = self.wrap
        w(pipeline, "build_traversability", "terrain.build_traversability",
          _count_traversability)
        w(terrain, "steepness_filter", "terrain.steepness_filter")
        w(terrain, "merge_masks", "terrain.merge_masks")
        w(terrain, "remove_isolated", "terrain.remove_isolated")
        w(pipeline, "build_covering_graph", "graphs.build_covering_graph", _count_g)
        w(pipeline, "build_spanning_graph", "graphs.build_spanning_graph", _count_h)
        w(graphs.CoveringGraph, "sssp", "graphs.sssp")
        w(graphs, "dijkstra", "graphs.sssp.solve")
        w(graphs.CoveringGraph, "path", "graphs.path")
        w(pipeline, "minimum_spanning_tree", "stc.minimum_spanning_tree")
        w(pipeline, "spiral_stc_loop", "stc.spiral_stc_loop", _count_loop)
        w(partition, "capacity_partition", "partition.capacity_partition")
        w(partition, "naive_mstc", "partition.naive_mstc")
        w(partition, "optimize_partition", _optimize_span, _count_virtual)
        w(partition.LoopCostModel, "placement_costs", "partition.placement_costs")
        w(partition, "balanced_cut", "partition.balanced_cut", _count_cut)
        # baselines imported build_robot_plan by name, so patch both lookups
        w(partition, "build_robot_plan", "partition.build_robot_plan", _count_refills)
        w(baselines, "build_robot_plan", "partition.build_robot_plan", _count_refills)
        w(baselines, "mstc_nb", "baselines.mstc_nb")
        w(baselines, "mstc_bo", "baselines.mstc_bo")

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _optimize_span(model, *args) -> str:
    # the virtual sub-partition stage balances a cost model without depots
    stage = "virtual" if model.depots is None else "merged"
    return f"partition.optimize_partition.{stage}"


def _count_traversability(tracer, args, tmap):
    tracer.count("terrain.free_cells", int(tmap.free.sum()))
    tracer.count("terrain.edges", len(tmap.edge_slopes))


def _count_g(tracer, args, g):
    tracer.count("graphs.G.nodes", len(g.cells))
    tracer.count("graphs.G.edges", len(g.weights))


def _count_h(tracer, args, h):
    tracer.count("graphs.H.blocks", len(h.blocks))
    tracer.count("graphs.H.edges", len(h.edges))


def _count_loop(tracer, args, loop):
    tracer.count("stc.loop.nodes", len(loop))


def _count_virtual(tracer, args, result):
    model, initial = args[0], args[1]
    if model.depots is None:
        tracer.count("partition.virtual_segments", len(initial.keys))


def _count_cut(tracer, args, result):
    before = args[0].weights
    if before is not None and max(result.weights) < max(before):
        tracer.count("partition.balanced_cut.accepted")


def _count_refills(tracer, args, plan):
    tracer.count("partition.refills", plan.trips - 1)


# per-layer metric -> how it is read from the traced pass, and from which name
LAYER_METRICS = {
    "scene.load_scene.s": ("time", "scene.load_scene"),
    "scene.bytes_read": ("counter", "scene.bytes_read"),
    "terrain.build_traversability.s": ("time", "terrain.build_traversability"),
    "terrain.steepness_filter.s": ("time", "terrain.steepness_filter"),
    "terrain.merge_masks.s": ("time", "terrain.merge_masks"),
    "terrain.remove_isolated.s": ("time", "terrain.remove_isolated"),
    "terrain.free_cells": ("counter", "terrain.free_cells"),
    "terrain.edges": ("counter", "terrain.edges"),
    "graphs.build_covering_graph.s": ("time", "graphs.build_covering_graph"),
    "graphs.build_spanning_graph.s": ("time", "graphs.build_spanning_graph"),
    "graphs.G.nodes": ("counter", "graphs.G.nodes"),
    "graphs.G.edges": ("counter", "graphs.G.edges"),
    "graphs.H.blocks": ("counter", "graphs.H.blocks"),
    "graphs.H.edges": ("counter", "graphs.H.edges"),
    "graphs.sssp.calls": ("calls", "graphs.sssp"),
    "graphs.sssp.solves": ("calls", "graphs.sssp.solve"),
    "graphs.sssp.hit_ratio": ("hit_ratio", None),
    "graphs.sssp.solve_s": ("time", "graphs.sssp.solve"),
    "graphs.path.calls": ("calls", "graphs.path"),
    "graphs.path.s": ("time", "graphs.path"),
    "stc.minimum_spanning_tree.s": ("time", "stc.minimum_spanning_tree"),
    "stc.spiral_stc_loop.s": ("time", "stc.spiral_stc_loop"),
    "stc.loop.nodes": ("counter", "stc.loop.nodes"),
    "pipeline.ScenePlanner.self_s": ("self", "pipeline.ScenePlanner"),
    "partition.capacity_partition.s": ("time", "partition.capacity_partition"),
    "partition.naive_mstc.s": ("time", "partition.naive_mstc"),
    "partition.optimize_partition.calls": ("optimize_calls", None),
    "partition.optimize_partition.virtual.s":
        ("time", "partition.optimize_partition.virtual"),
    "partition.optimize_partition.merged.s":
        ("time", "partition.optimize_partition.merged"),
    "partition.virtual_segments": ("counter", "partition.virtual_segments"),
    "partition.placement_costs.calls": ("calls", "partition.placement_costs"),
    "partition.placement_costs.s": ("time", "partition.placement_costs"),
    "partition.balanced_cut.calls": ("calls", "partition.balanced_cut"),
    "partition.balanced_cut.accept_ratio": ("accept_ratio", None),
    "partition.build_robot_plan.calls": ("calls", "partition.build_robot_plan"),
    "partition.build_robot_plan.s": ("time", "partition.build_robot_plan"),
    "partition.refills": ("counter", "partition.refills"),
    "baselines.mstc_nb.s": ("time", "baselines.mstc_nb"),
    "baselines.mstc_bo.s": ("time", "baselines.mstc_bo"),
    "pipeline.plan_document.s": ("time", "pipeline.plan_document"),
    "pipeline.write_json_atomic.s": ("time", "pipeline.write_json_atomic"),
    "pipeline.json_bytes": ("counter", "pipeline.json_bytes"),
    "render.save_plan_svg.s": ("time", "render.save_plan_svg"),
    "render.svg_bytes": ("counter", "render.svg_bytes"),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value from one traced pass (0 where unused)."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    out = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == "time":
            out[metric] = totals.get(source, {}).get("s", 0.0)
        elif kind == "self":
            out[metric] = totals.get(source, {}).get("self_s", 0.0)
        elif kind == "calls":
            out[metric] = calls(source)
        elif kind == "counter":
            out[metric] = counters.get(source, 0)
        elif kind == "optimize_calls":
            out[metric] = (calls("partition.optimize_partition.virtual")
                           + calls("partition.optimize_partition.merged"))
        elif kind == "hit_ratio":
            n = calls("graphs.sssp")
            out[metric] = (n - calls("graphs.sssp.solve")) / n if n else 0.0
        else:  # accept_ratio
            n = calls("partition.balanced_cut")
            out[metric] = counters.get("partition.balanced_cut.accepted", 0) / n if n else 0.0
    return out
