"""Benchmark harness: run the solver x problem grid over seeded trials and
summarise costs against the back-and-forth baseline.

Trial i of a stochastic solver uses seed config.aco.seed + i; the
deterministic baseline runs once per problem, with config.aco.seed. The
harness only returns data: reports and the summary turn into JSON via
to_json_dict, both carrying "schema": 1, and the caller decides where they
go. Everything except wall_time_ms is reproducible bit for bit for a given
map and configuration.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field, replace

from .aco import AcoParams
from .energy import EnergyModel
from .fleet import SOLVERS, FleetPlan, plan_fleet
from .world import FarmMap, generate_waypoints

SCHEMA_VERSION = 1
DEFAULT_SEED = 42
PROBLEMS = {"single": 1, "dual": 2}  # problem -> number of drones


@dataclass(frozen=True, slots=True)
class TrialReport:
    solver: str
    problem: str
    seed: int
    valid: bool
    cost_kj: float
    distance_m: float
    turn_deg: float
    wall_time_ms: float

    def to_json_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, **asdict(self)}


@dataclass(frozen=True, slots=True)
class CellSummary:
    solver: str
    problem: str
    trials_run: int
    trials_valid: int
    mean_cost_kj: float | None
    min_cost_kj: float | None
    max_cost_kj: float | None
    stddev_cost_kj: float | None
    baseline_cost_kj: float | None
    improvement_pct: float | None
    error: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class BenchSummary:
    cells: tuple[CellSummary, ...]
    n_trials: int | None = None
    base_seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "n_trials": self.n_trials,
            "base_seed": self.base_seed,
            "cells": [c.to_json_dict() for c in self.cells],
        }


@dataclass(frozen=True, slots=True)
class BenchConfig:
    n_trials: int = 30
    model: EnergyModel = field(default_factory=EnergyModel)
    aco: AcoParams = field(default_factory=lambda: AcoParams(seed=DEFAULT_SEED))

    def __post_init__(self):
        if not isinstance(self.n_trials, int) or isinstance(self.n_trials, bool):
            raise ValueError(f"n_trials must be an int, got {type(self.n_trials).__name__}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")


def summarize(reports, cell_errors: dict | None = None,
              n_trials: int | None = None, base_seed: int | None = None) -> BenchSummary:
    """Aggregate trial reports into per-cell statistics.

    Statistics cover valid trials only. The baseline cost for a problem comes
    from that problem's back-and-forth report when present; improvement_pct
    compares a solver's mean against it.
    """
    cell_errors = cell_errors or {}
    keys = sorted({(r.solver, r.problem) for r in reports} | cell_errors.keys())

    baseline_by_problem = {}
    for r in reports:
        if r.solver == "back-and-forth" and r.valid:
            baseline_by_problem[r.problem] = r.cost_kj

    cells = []
    for solver, problem in keys:
        rows = [r for r in reports if r.solver == solver and r.problem == problem]
        costs = [r.cost_kj for r in rows if r.valid]
        baseline = baseline_by_problem.get(problem)
        error = cell_errors.get((solver, problem))
        if costs:
            mean = statistics.fmean(costs)
            lo, hi = min(costs), max(costs)
            sd = statistics.pstdev(costs)
            improvement = None
            if baseline is not None and solver != "back-and-forth":
                improvement = (baseline - mean) / baseline * 100.0
        else:
            mean = lo = hi = sd = improvement = None
            if rows and error is None:
                error = "no valid solutions"
        cells.append(CellSummary(solver, problem, len(rows), len(costs),
                                 mean, lo, hi, sd, baseline, improvement, error))
    return BenchSummary(tuple(cells), n_trials, base_seed)


def run_benchmark(farm: FarmMap, config: BenchConfig | None = None):
    """Run every solver of SOLVERS on every problem of PROBLEMS. Returns
    (summary, reports, best_plans): reports sorted by (solver, problem, seed)
    and best_plans mapping (solver, problem) to the lowest-cost valid
    FleetPlan. Nothing is written to disk.

    A failure (disconnected half, impossible partition, ...) aborts only its
    cell; the error lands in that cell's summary row, so every cell has at
    least one report or an error.
    """
    config = config or BenchConfig()
    waypoints = generate_waypoints(farm)
    reports: list[TrialReport] = []
    best_plans: dict[tuple[str, str], FleetPlan] = {}
    cell_errors: dict[tuple[str, str], str] = {}

    for problem, n_drones in PROBLEMS.items():
        for solver in SOLVERS:
            if solver == "back-and-forth":
                seeds = [config.aco.seed]
            else:
                seeds = [config.aco.seed + i for i in range(config.n_trials)]
            for seed in seeds:
                params = replace(config.aco, seed=seed)  # plan_fleet sets the variant
                t0 = time.perf_counter()
                try:
                    plan = plan_fleet(farm, waypoints, n_drones, solver,
                                      config.model, params)
                except ValueError as exc:
                    cell_errors[(solver, problem)] = str(exc)
                    break
                wall_ms = (time.perf_counter() - t0) * 1000.0
                reports.append(TrialReport(solver, problem, seed, plan.valid,
                                           plan.total_cost_kj, plan.total_distance_m,
                                           plan.total_turn_deg, wall_ms))
                key = (solver, problem)
                if plan.valid and (key not in best_plans
                                   or plan.total_cost_kj < best_plans[key].total_cost_kj):
                    best_plans[key] = plan

    reports.sort(key=lambda r: (r.solver, r.problem, r.seed))
    summary = summarize(reports, cell_errors, config.n_trials, config.aco.seed)
    return summary, reports, best_plans
