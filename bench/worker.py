"""One workload in a fresh process: the timed part of the benchmark.

Reads the scene manifest written by ``run.py``, then repeats passes over
the workload until ``--seconds`` have elapsed, with at least two
passes unless a further pass would end after ``PASS_BUDGET_S``.  A
pass starts at the first ``load_scene`` and ends with the last plan file
written; per scene it builds one ``ScenePlanner`` and serves every
request the way ``mrcpp plan`` does.  Plan files are hashed after the
pass, outside the timed region.  With ``--trace 1`` the worker runs one
untraced pass and then one pass with the layer probes installed.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from mrcpp import ScenePlanner, load_scene, plan_document, save_plan_svg, write_json_atomic
from mrcpp.pipeline import capacity_label

from tracing import LayerProbes, SpeedProbe, Tracer, layer_metrics

REQUEST_CAP_S = 60.0    # a request running longer is recorded as failed
RUN_DEADLINE_S = 140.0  # no request starts after this; keeps a run under 180 s
PASS_BUDGET_S = 100.0   # no further pass starts if it would end after this
MIN_PASSES = 2          # steps are scaled by the host speed, so two samples each suffice
MAX_PASSES = 50
STEP_SPANS = ("scene.load_scene", "pipeline.ScenePlanner", "pipeline.ScenePlanner.plan",
              "pipeline.plan_document", "pipeline.write_json_atomic", "render.save_plan_svg")


class RequestTimeout(Exception):
    pass


@contextmanager
def time_cap(seconds: float):
    """Raise ``RequestTimeout`` in the body once ``seconds`` have passed."""
    if seconds <= 0:
        raise RequestTimeout("run deadline passed before the request started")

    def on_alarm(signum, frame):
        raise RequestTimeout(f"exceeded the {seconds:.1f} s cap")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Run:
    """The workload's passes.  Step times (``setup``, ``plan_s``,
    ``output_s``) are scaled by the host speed ``speed`` measured during the
    step; ``cpu_s`` is unscaled."""

    def __init__(self, manifest: dict, out: Path, speed: SpeedProbe):
        self.name = manifest["workload"]
        self.render = manifest["render"]
        self.scenes = manifest["scenes"]
        self.requests = [(a, k, math.inf if c == "inf" else float(c))
                         for a, k, c in manifest["requests"]]
        self.out = out
        self.speed = speed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def cap(self) -> float:
        return min(REQUEST_CAP_S, self.deadline - time.perf_counter())

    def run_pass(self, index: int, tracer: Tracer) -> tuple[dict, list[dict]]:
        out = self.out / f"pass{index}"
        records, setup = [], {}
        wall_start = time.perf_counter()
        with tracer.span("pass") as pass_span:
            for entry in self.scenes:
                records += self._scene(entry, out / entry["scene_id"], tracer, setup)
        wall_s = time.perf_counter() - wall_start
        totals = tracer.totals()
        cpu_s = tracer.duration(pass_span)
        total_s = self._scaled(tracer, pass_span)
        in_steps = sum(totals.get(n, {}).get("s", 0.0) for n in (*STEP_SPANS, "untimed.gc"))
        timings = {
            "total_s": total_s,
            "setup_s": sum(setup.values()),
            "plan_s": sum(r.get("plan_s", 0.0) for r in records),
            "output_s": sum(r.get("output_s", 0.0) for r in records),
            # the bookkeeping between steps, at the pass's median speed
            "other_s": (cpu_s - in_steps) * total_s / cpu_s,
            "cpu_s": cpu_s,
            "wall_s": wall_s,
            "setup": setup,
        }
        for rec in records:
            rec["pass"] = index
            _hash_outputs(rec, tracer)
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)
        return timings, records

    @staticmethod
    def _collect_garbage(tracer: Tracer) -> None:
        """Collect untimed before each scene and request.

        Otherwise a cyclic collection lands in whichever step crosses the
        allocation threshold, and that depends on the order the seed gives.
        A scene planned by ``mrcpp plan`` starts in a fresh process anyway.
        """
        with tracer.span("untimed.gc"):
            gc.collect()

    def _scaled(self, tracer: Tracer, idx: int) -> float:
        _, _, start, end = tracer.spans[idx]
        return self.speed.scaled(start, end)

    def _scene(self, entry: dict, out: Path, tracer: Tracer, setup: dict) -> list[dict]:
        requests = self.requests
        self._collect_garbage(tracer)
        try:
            with time_cap(self.cap()):
                with tracer.span("scene.load_scene") as load_span:
                    scene = load_scene(entry["path"])
                tracer.count("scene.bytes_read", entry["bytes"])
                with tracer.span("pipeline.ScenePlanner") as planner_span:
                    planner = ScenePlanner(scene)
            setup[entry["scene_id"]] = (self._scaled(tracer, load_span)
                                        + self._scaled(tracer, planner_span))
        except Exception as exc:
            error = _describe(exc)
            return [self._record(entry, a, k, c, error=f"set-up failed: {error}")
                    for a, k, c in requests]
        return [self._request(entry, scene, planner, a, k, c, out, tracer)
                for a, k, c in requests]

    def _request(self, entry, scene, planner, algo, k, c, out, tracer) -> dict:
        name = f"plan_{algo}_k{k}_c{capacity_label(c)}"
        self._collect_garbage(tracer)
        rec = self._record(entry, algo, k, c, loop_length=len(planner.loop))
        started = time.perf_counter()
        outputs = []
        try:
            with time_cap(self.cap()):
                with tracer.span("pipeline.ScenePlanner.plan") as plan_span:
                    result = planner.plan(algo, k, c)
                with tracer.span("pipeline.plan_document") as span:
                    doc = plan_document(result, scene, scene_id=entry["scene_id"],
                                        seed=entry["seed"])
                outputs.append(span)
                with tracer.span("pipeline.write_json_atomic") as span:
                    path = write_json_atomic(out / f"{name}.json", doc)
                outputs.append(span)
                if algo == self.render:
                    with tracer.span("render.save_plan_svg") as span:
                        rec["svg"] = str(save_plan_svg(scene, doc, out / f"{name}.svg"))
                    outputs.append(span)
        except Exception as exc:
            rec["error"] = _describe(exc)
            rec["seconds"] = time.perf_counter() - started
            return rec
        plan_s = self._scaled(tracer, plan_span)
        output_s = sum(self._scaled(tracer, s) for s in outputs)
        cpu_s = tracer.duration(plan_span) + sum(tracer.duration(s) for s in outputs)
        rec.update(path=str(path), max_weight=result.max_weight, plan_s=plan_s,
                   output_s=output_s, seconds=plan_s + output_s, cpu_s=cpu_s)
        return rec

    def _record(self, entry, algo, k, c, **extra) -> dict:
        return {"workload": self.name, "scene_id": entry["scene_id"],
                "algorithm": algo, "k": k, "c": capacity_label(c), **extra}


def _describe(exc: Exception) -> str:
    if isinstance(exc, RequestTimeout):
        return f"timeout: {exc}"
    return "".join(traceback.format_exception_only(exc)).strip()


def _hash_outputs(rec: dict, tracer: Tracer) -> None:
    if "path" in rec:
        data = Path(rec["path"]).read_bytes()
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        tracer.count("pipeline.json_bytes", len(data))
    if "svg" in rec:
        tracer.count("render.svg_bytes", Path(rec.pop("svg")).stat().st_size)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Objects made by the imports live as long as the process; freezing them
    # keeps the untimed collections before each scene and request cheap.
    gc.freeze()
    speed = SpeedProbe()
    speed.start()
    try:
        result = run_passes(Run(json.loads(args.manifest.read_text()), args.out, speed),
                            args.seconds, args.trace)
    finally:
        speed.stop()
    json.dump(result, sys.stdout)
    return 0


def run_passes(run: Run, seconds: float, trace: int) -> dict:
    passes, records = [], []
    first_start = time.perf_counter()
    traced = None
    while True:
        timings, recs = run.run_pass(len(passes), Tracer(run.speed.clock))
        passes.append(timings)
        records += recs
        if trace:
            break
        elapsed = time.perf_counter() - first_start
        if len(passes) >= MAX_PASSES or elapsed + timings["wall_s"] > PASS_BUDGET_S:
            break
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            break
    if trace:
        tracer = Tracer(run.speed.clock)
        probes = LayerProbes(tracer)
        probes.install()
        try:
            timings, recs = run.run_pass(len(passes), tracer)
        finally:
            probes.remove()
        records += recs
        layers = layer_metrics(tracer)
        layers["trace.total_s"] = timings["total_s"]
        layers["trace.untraced_total_s"] = passes[0]["total_s"]
        traced = {"layers": layers, "spans": tracer.to_json()}

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "requests": records, "traced": traced,
            "peak_rss_mb": peak_kib / 1024.0,
            "speed_samples": {"clock_s": run.speed.times, "seconds": run.speed.durations}}


if __name__ == "__main__":
    sys.exit(main())
