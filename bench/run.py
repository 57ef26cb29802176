"""Planning benchmark for mrcpp; the workloads and metrics are listed in BENCHMARK.json.

    python3 bench/run.py --workload field256-inf --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --workload all

For one workload: generate its scenes (untimed) into a temporary
directory under ``bench/results``, in the order the seed gives, run the
timed passes in a fresh worker process, validate every plan the worker
wrote, and print each metric by name and unit.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer metrics of a traced pass.  The full record (per-request
``max_weight``, seconds and plan SHA-256, pass timings, spans) is
written to ``bench/results/<workload>-seed<n>-trace<t>.json``.

``--workload all`` runs every workload, each in its own process.
"""
from __future__ import annotations

import os

# single-threaded numerics, set before numpy is imported here or in the worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from workloads import ALGORITHMS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def generate_inputs(workload, seed: int, scene_dir: Path) -> dict:
    """Write the workload's scenes with ``save_scene``; returns the manifest."""
    from mrcpp import generate_scene, save_scene
    from mrcpp.pipeline import capacity_label

    scene_dir.mkdir(parents=True)
    scenes, requests = workload.ordered(seed)
    entries = []
    for spec in scenes:
        scene = generate_scene(spec.kind, spec.seed, width=spec.size, height=spec.size)
        path = save_scene(scene, scene_dir / f"{spec.scene_id}.json")
        files = scene_dir.glob(f"{spec.scene_id}[._]*")
        entries.append({"scene_id": spec.scene_id, "seed": spec.seed, "path": str(path),
                        "bytes": sum(f.stat().st_size for f in files)})
    return {"workload": workload.name, "render": workload.render, "scenes": entries,
            "requests": [[a, k, capacity_label(c)] for a, k, c in requests]}


def run_worker(manifest_path: Path, out: Path, seconds: int, trace: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--manifest", str(manifest_path), "--out", str(out),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def validate_records(manifest: dict, records: list[dict]) -> None:
    """Mark each invalid record with an ``error``.

    Pass-0 plans are checked against the graph; later passes (the traced
    one included) must reproduce pass 0 byte for byte.
    """
    from mrcpp import ScenePlanner, load_scene
    from validate import GraphOracle, validate_plan

    first = {}
    for entry in manifest["scenes"]:
        scene = load_scene(entry["path"])
        planner = ScenePlanner(scene)
        oracle = GraphOracle(planner.graph, planner.loop.nodes)
        for rec in records:
            if rec["scene_id"] != entry["scene_id"] or rec["pass"] != 0 or "error" in rec:
                continue
            capacity = math.inf if rec["c"] == "inf" else float(rec["c"])
            try:
                doc = json.loads(Path(rec["path"]).read_text())
                errors = validate_plan(doc, oracle, scene.depots, rec["k"], capacity)
                if doc["global"]["max_weight"] != rec["max_weight"]:
                    errors.append("plan file max_weight differs from the planner's result")
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                errors = [f"malformed plan document ({exc!r})"]
            if errors:
                rec["error"] = "invalid plan: " + "; ".join(errors[:5])
            first[_key(rec)] = rec.get("sha256")
    for rec in records:
        if rec["pass"] > 0 and "error" not in rec and first.get(_key(rec)) != rec["sha256"]:
            rec["error"] = "plan JSON differs from the first pass"


def _key(rec: dict) -> tuple:
    return rec["scene_id"], rec["algorithm"], rec["k"], rec["c"]


def _sum_of_medians(samples: dict) -> float:
    return sum(statistics.median(v) for v in samples.values())


def end_to_end(result: dict, records: list[dict]) -> dict:
    """Times are each step's median over the run's samples, summed over steps.

    A step is one scene's set-up, or one request's planning or output.
    Taking the median per step before summing drops a step slowed by a
    burst of load on the machine.  Each sample is CPU seconds scaled by the
    host speed measured during the step (see ``tracing.SpeedProbe``).
    """
    setup, plan, output = defaultdict(list), defaultdict(list), defaultdict(list)
    for p in result["passes"]:
        for scene_id, seconds in p["setup"].items():
            setup[scene_id].append(seconds)
    for rec in records:
        if "plan_s" in rec:
            plan[_key(rec)].append(rec["plan_s"])
            output[_key(rec)].append(rec["output_s"])
    metrics = {"setup_s": _sum_of_medians(setup), "plan_s": _sum_of_medians(plan),
               "output_s": _sum_of_medians(output)}
    other = statistics.median(p["other_s"] for p in result["passes"])
    metrics["total_s"] = metrics["setup_s"] + metrics["plan_s"] + metrics["output_s"] + other
    for algo in ALGORITHMS:
        weights = [r["max_weight"] for r in records
                   if r["pass"] == 0 and r["algorithm"] == algo and "error" not in r]
        metrics[f"max_weight_gmean.{algo}"] = (
            math.exp(statistics.fmean(map(math.log, weights))) if weights else None)
    failed = sum("error" in r for r in records)
    metrics["success_frac"] = (len(records) - failed) / len(records)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return metrics


def with_units(values: dict, listed: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    from selftest import run_selftest

    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    try:
        manifest = generate_inputs(workload, seed, tmp / "scenes")
        manifest_path = tmp / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        result = run_worker(manifest_path, tmp / "plans", seconds, trace)
        records = result["requests"]
        validate_records(manifest, records)
        selftest_problems = run_selftest()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for rec in records:
        rec.pop("path", None)
    failed = sum("error" in r for r in records)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        metrics = with_units(result["traced"]["layers"], spec["per_layer"])
    else:
        metrics = with_units(end_to_end(result, records), spec["end_to_end"])
    summary = {"correct": failed == 0 and not selftest_problems,
               "attempted": len(records), "failed": failed, "metrics": metrics}
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "selftest_problems": selftest_problems,
              "failed_frac": failed / len(records), **summary,
              "passes": result["passes"], "speed_samples": result["speed_samples"],
              "requests": records,
              "traced": result["traced"]}
    out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(report))

    for problem in selftest_problems:
        print(f"validator self-test: {problem}")
    for rec in records:
        if "error" in rec:
            print(f"FAILED {rec['scene_id']} {rec['algorithm']} k={rec['k']} "
                  f"c={rec['c']} pass {rec['pass']}: {rec['error']}")
    for metric, m in metrics.items():
        print(f"{name} {metric} {m['value']} {m['unit']}")
    print(f"{name}: {len(records)} requests in {len(result['passes']) + trace} passes, "
          f"{failed} failed, record in {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; prints each one's metric lines."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        ok &= proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the scenes and requests of the run")
    ap.add_argument("--seconds", type=int, default=15, help="measure for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mrcpp" / "__init__.py").is_file():
        print(f"error: no mrcpp sources at {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
