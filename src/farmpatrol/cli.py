"""Command line interface.

Subcommands:
    validate  check a map file (schema + connectivity) and print stats
    plan      plan a coverage tour and export it as JSON (optionally SVG)
    bench     run the solver x problem benchmark grid over seeded trials
    render    draw a map, optionally with a planned tour, to SVG

Exit codes: 0 success, 2 schema violation, 3 connectivity failure,
4 planning failure, 1 anything else (a file that cannot be read or written,
a bad flag or GUARD_SEED value, an energy scale that overflows on the map or
ants too many to allocate: one "error: ..." line on stderr). When --seed /
--base-seed is omitted the GUARD_SEED environment variable is used, then 42.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .aco import AcoParams
from .energy import EnergyModel
from .fleet import SOLVERS, PlanningError, plan_fleet
from .harness import DEFAULT_SEED, BenchConfig, run_benchmark
from .render import export_path, render_svg
from .routegraph import DisconnectedGraphError, build_graph
from .world import FarmMap, MapSchemaError, generate_waypoints, load_map, read_map_document

_SOLVER_NAMES = {name.lower(): name for name in SOLVERS}


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("GUARD_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"GUARD_SEED must be an integer, got {env!r}") from None


def _load(args) -> FarmMap:
    doc = read_map_document(args.map)
    # overrides re-enter full validation: a clearance that swallows a station fails
    if isinstance(doc, dict):
        doc.update(_given(grid_spacing_m=args.spacing, clearance_m=args.clearance))
    return load_map(doc)


def _given(**kw) -> dict:
    """The keyword arguments whose flag was given; the others are left to
    the library's own defaults."""
    return {key: value for key, value in kw.items() if value is not None}


def _model(args) -> EnergyModel:
    return EnergyModel(**_given(lambda_kj_per_m=args.lambda_, gamma_kj_per_deg=args.gamma))


def _params(args, seed: int) -> AcoParams:
    # plan_fleet takes the variant from the solver name
    return AcoParams(seed=seed, **_given(n_ants=args.ants, n_iterations=args.iterations,
                                         alpha=args.alpha, beta=args.beta, rho=args.rho))


def cmd_validate(args) -> int:
    farm = _load(args)
    w = generate_waypoints(farm)
    print(f"perimeter: {farm.width:g} x {farm.height:g} m")
    print(f"obstacles: {len(farm.obstacles)}")
    print(f"stations: {len(farm.stations)}")
    print(f"clearance: {farm.clearance_m:g} m, grid spacing: {farm.grid_spacing_m:g} m")
    print(f"waypoints: {w.n_valid} valid of {len(w.points)}")
    for k in range(len(farm.stations)):
        g = build_graph(farm, w, k)
        print(f"station {k}: graph ok, {g.n_nodes} nodes, {int(g.adj.sum()) // 2} edges")
    print("map ok")
    return 0


def _plan(args, farm, waypoints, seed: int):
    solver = _SOLVER_NAMES[args.solver]
    return plan_fleet(farm, waypoints, args.drones, solver, _model(args),
                      _params(args, seed))


def _plan_doc(plan) -> dict:
    drones = []
    for d in plan.drones:
        entry = {"station": d.station}
        entry.update(export_path(d.tour, d.graph, d.altitude_m))
        drones.append(entry)
    return {
        "schema": 1,
        "solver": plan.solver,
        "n_drones": len(plan.drones),
        "valid": plan.valid,
        "total_cost_kj": plan.total_cost_kj,
        "total_distance_m": plan.total_distance_m,
        "total_turn_deg": plan.total_turn_deg,
        "drones": drones,
    }


def _check_out(path) -> None:
    """Reject an output file path that cannot be written, before any work."""
    p = Path(path)
    if p.is_dir():
        raise IsADirectoryError(f"output path is a directory: {path}")
    if not p.parent.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {p.parent}")


def cmd_plan(args) -> int:
    _check_out(args.out)
    if args.svg:
        _check_out(args.svg)
    farm = _load(args)
    w = generate_waypoints(farm)
    seed = _resolve_seed(args.seed)
    plan = _plan(args, farm, w, seed)
    Path(args.out).write_text(json.dumps(_plan_doc(plan), indent=2) + "\n")
    if args.svg:
        Path(args.svg).write_text(render_svg(farm, w, plan))
    for d in plan.drones:
        state = "valid" if d.tour.is_valid else "INVALID"
        print(f"drone {d.station}: {d.tour.cost_kj:.3f} kJ, "
              f"{d.tour.total_distance_m:.1f} m, {d.tour.total_turn_deg:.1f} deg, "
              f"altitude {d.altitude_m:g} m [{state}]")
    print(f"total: {plan.total_cost_kj:.3f} kJ ({plan.solver}, seed {seed})")
    print(f"wrote {args.out}")
    if not plan.valid:
        print("planning failed: no valid coverage tour found", file=sys.stderr)
        return 4
    return 0


def cmd_bench(args) -> int:
    farm = _load(args)
    base_seed = _resolve_seed(args.base_seed)
    cfg = BenchConfig(model=_model(args), aco=_params(args, base_seed),
                      **_given(n_trials=args.trials))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary, reports, best = run_benchmark(farm, cfg)
    (out / "trials.jsonl").write_text(
        "".join(json.dumps(r.to_json_dict()) + "\n" for r in reports))
    (out / "summary.json").write_text(json.dumps(summary.to_json_dict(), indent=2) + "\n")
    w = generate_waypoints(farm)
    for (solver, problem), plan in sorted(best.items()):
        (out / f"best_{solver}_{problem}.svg").write_text(render_svg(farm, w, plan))
    print(f"{'solver':>14} {'problem':>7} {'valid':>7} {'mean kJ':>10} "
          f"{'min kJ':>10} {'improve':>8}")
    for c in summary.cells:
        mean = f"{c.mean_cost_kj:.2f}" if c.mean_cost_kj is not None else "-"
        lo = f"{c.min_cost_kj:.2f}" if c.min_cost_kj is not None else "-"
        imp = f"{c.improvement_pct:+.1f}%" if c.improvement_pct is not None else "-"
        note = f"  ! {c.error}" if c.error else ""
        print(f"{c.solver:>14} {c.problem:>7} {c.trials_valid:>3}/{c.trials_run:<3} "
              f"{mean:>10} {lo:>10} {imp:>8}{note}")
    print(f"wrote {out / 'trials.jsonl'} and {out / 'summary.json'}")
    return 0


def cmd_render(args) -> int:
    _check_out(args.out)
    farm = _load(args)
    w = generate_waypoints(farm)
    plan = None
    if args.solver is not None:
        plan = _plan(args, farm, w, _resolve_seed(args.seed))
    Path(args.out).write_text(render_svg(farm, w, plan))
    print(f"wrote {args.out}")
    return 0


def _add_map_arg(p):
    p.add_argument("map", help="path to a map JSON file")
    p.add_argument("--spacing", type=float, default=None,
                   help="override grid_spacing_m from the map file")
    p.add_argument("--clearance", type=float, default=None,
                   help="override clearance_m from the map file")


def _add_model_args(p):
    p.add_argument("--lambda", dest="lambda_", type=float, default=None,
                   metavar="KJ_PER_M", help="energy per metre flown")
    p.add_argument("--gamma", type=float, default=None,
                   metavar="KJ_PER_DEG", help="energy per degree turned")


def _add_aco_args(p):
    p.add_argument("--alpha", type=float, default=None, help="trail exponent")
    p.add_argument("--beta", type=float, default=None, help="heuristic exponent")
    p.add_argument("--rho", type=float, default=None,
                   help="evaporation rate (default 0.5 AS, 0.05 MMAS)")
    p.add_argument("--ants", type=int, default=None,
                   help="ants per iteration (default: one per waypoint, max 50)")
    p.add_argument("--iterations", type=int, default=None, help="colony iterations")


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a command line it cannot parse, which main
    reports as one "error: ..." line with exit 1; subparsers inherit the
    class. --help still prints usage and exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="farmpatrol",
        description="Energy-aware coverage path planning for patrol UAVs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a map file and print stats")
    _add_map_arg(p)
    p.set_defaults(func=cmd_validate)

    seed_help = f"colony seed (default: $GUARD_SEED, then {DEFAULT_SEED})"
    p = sub.add_parser("plan", help="plan a coverage tour")
    _add_map_arg(p)
    p.add_argument("--solver", choices=sorted(_SOLVER_NAMES), default="as")
    p.add_argument("--drones", type=int, choices=(1, 2), default=1)
    p.add_argument("--seed", type=int, default=None, help=seed_help)
    p.add_argument("--out", default="tour.json", help="path export file")
    p.add_argument("--svg", default=None, help="also render the plan to SVG")
    _add_model_args(p)
    _add_aco_args(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="run the benchmark grid")
    _add_map_arg(p)
    p.add_argument("--trials", type=int, default=None, help="seeded trials per colony cell")
    p.add_argument("--base-seed", type=int, default=None,
                   help=f"seed of trial 0 (default: $GUARD_SEED, then {DEFAULT_SEED})")
    p.add_argument("--out-dir", default="bench_out")
    _add_model_args(p)
    _add_aco_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="draw a map (optionally with a plan) to SVG")
    _add_map_arg(p)
    p.add_argument("--out", default="map.svg", help="output SVG path")
    p.add_argument("--solver", choices=sorted(_SOLVER_NAMES), default=None,
                   help="also plan and draw a tour")
    p.add_argument("--drones", type=int, choices=(1, 2), default=1)
    p.add_argument("--seed", type=int, default=None, help=seed_help)
    _add_model_args(p)
    _add_aco_args(p)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MapSchemaError as exc:
        print(f"map error: {exc}", file=sys.stderr)
        return 2
    except DisconnectedGraphError as exc:
        print(f"connectivity error: {exc}", file=sys.stderr)
        return 3
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, MemoryError) as exc:  # a file I/O failure, a bad flag, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
