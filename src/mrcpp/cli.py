"""Command-line front end: plan | compare | render | gen-scene."""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import scenegen
from .baselines import format_comparison_table
from .graphs import PlannerConfig
from .pipeline import (ALGORITHMS, ScenePlanner, capacity_label, plan_document,
                       write_json_atomic)
from .render import RenderError, save_plan_svg
from .scene import load_scene, save_scene


def _parse_capacity(text: str) -> float:
    if text.strip().lower() in ("inf", "infinite", "unbounded"):
        return math.inf
    try:
        if int(text) >= 1:
            return float(int(text))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"capacity must be a positive integer or 'inf', got {text!r}")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scene", required=True, type=Path, help="scene JSON document")
    p.add_argument("--algo", action="append", choices=ALGORITHMS,
                   help="algorithm (repeatable)")
    p.add_argument("--robots", action="append", type=int,
                   help="fleet size k (repeatable)")
    p.add_argument("--capacity", action="append", type=_parse_capacity,
                   help="cells per load, or 'inf' (repeatable)")
    p.add_argument("--alpha", type=float, default=PlannerConfig.alpha,
                   help="distance weight coefficient")
    p.add_argument("--beta", type=float, default=PlannerConfig.beta,
                   help="slope weight coefficient")
    p.add_argument("--slope-threshold", type=float, default=PlannerConfig.slope_threshold,
                   help="max traversable slope in degrees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("out"))


def _add_debug(p: argparse.ArgumentParser):
    p.add_argument("--debug", action="store_true",
                   help="re-raise errors with their traceback instead of exiting 2")


def _planner(args) -> ScenePlanner:
    config = PlannerConfig(alpha=args.alpha, beta=args.beta,
                           slope_threshold=args.slope_threshold)
    return ScenePlanner(load_scene(args.scene), config)


def cmd_plan(args) -> int:
    planner = _planner(args)
    for algo in args.algo or ["balanced"]:
        for k in args.robots or [4]:
            for c in args.capacity or [math.inf]:
                result = planner.plan(algo, k, c)
                doc = plan_document(result, planner.scene, scene_id=args.scene.stem,
                                    seed=args.seed)
                name = f"plan_{algo}_k{k}_c{capacity_label(c)}.json"
                path = write_json_atomic(args.out / name, doc)
                print(f"{algo} k={k} c={capacity_label(c)} "
                      f"max_weight={result.max_weight:.4f} "
                      f"total_weight={result.total_weight:.4f} "
                      f"coverage={result.coverage['ratio']:.4f} -> {path}")
    return 0


def cmd_compare(args) -> int:
    planner = _planner(args)
    reports = []
    for k in args.robots or [4]:
        for c in args.capacity or [math.inf]:
            report = planner.compare(args.algo or ["mstc-nb", "naive", "balanced"], k, c,
                                     scene_id=args.scene.stem, seed=args.seed)
            reports.append(report)
            name = f"compare_k{k}_c{capacity_label(c)}.json"
            write_json_atomic(args.out / name, report.to_json_dict())
    print(format_comparison_table(reports))
    return 0


def cmd_render(args) -> int:
    scene = load_scene(args.scene)
    try:
        doc = json.loads(args.plan.read_text())
    except json.JSONDecodeError as exc:
        raise RenderError(f"{args.plan}: not valid JSON ({exc})") from exc
    path = save_plan_svg(scene, doc, args.out)
    print(f"wrote {path}")
    return 0


def cmd_gen_scene(args) -> int:
    scene = scenegen.generate_scene(args.kind, args.seed, width=args.width,
                                    height=args.height, robots=args.robots,
                                    depot_style=args.depot_style)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    path = save_scene(scene, args.out)
    print(f"wrote {path} ({scene.width}x{scene.height}, "
          f"{len(scene.depots)} depots)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrcpp",
        description="Multi-robot coverage path planning on weighted terrain grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan coverage paths and emit plan JSON")
    _add_common(p_plan)
    _add_debug(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_cmp = sub.add_parser("compare", help="compare algorithms on one scene")
    _add_common(p_cmp)
    _add_debug(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_render = sub.add_parser("render", help="render a plan JSON as SVG")
    p_render.add_argument("--plan", required=True, type=Path)
    p_render.add_argument("--scene", required=True, type=Path)
    p_render.add_argument("--out", required=True, type=Path)
    _add_debug(p_render)
    p_render.set_defaults(func=cmd_render)

    p_gen = sub.add_parser("gen-scene", help="generate a seeded scene")
    p_gen.add_argument("--kind", required=True, choices=scenegen.KINDS)
    p_gen.add_argument("--width", type=int)
    p_gen.add_argument("--height", type=int)
    p_gen.add_argument("--robots", type=int)
    p_gen.add_argument("--depot-style", choices=("clustered", "scattered"))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, type=Path)
    _add_debug(p_gen)
    p_gen.set_defaults(func=cmd_gen_scene)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean diagnostic, nonzero exit
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
