import dataclasses
import json
import statistics

import pytest

from farmpatrol.aco import AcoParams
from farmpatrol.energy import EnergyModel
from farmpatrol.geometry import Point2D
from farmpatrol.harness import (
    BenchConfig, TrialReport, run_benchmark, summarize,
)
from farmpatrol.world import FarmMap

FAST_ACO = AcoParams(n_ants=4, n_iterations=15, seed=42)


def open_map(width=100, height=100, stations=((-10, 0),)):
    return FarmMap(Point2D(0, 0), Point2D(width, height), (),
                   tuple(Point2D(*s) for s in stations), 10.0, 38.0)


def report(solver, problem, seed, valid, cost):
    return TrialReport(solver, problem, seed, valid, cost, cost / 0.1164, 0.0, 1.0)


def test_summarize_stats():
    reports = [
        report("back-and-forth", "single", 42, True, 200.0),
        report("AS", "single", 42, True, 150.0),
        report("AS", "single", 43, True, 170.0),
        report("AS", "single", 44, False, 500.0),
    ]
    s = summarize(reports)
    cell = s.cell("AS", "single")
    assert cell.trials_run == 3
    assert cell.trials_valid == 2
    assert cell.mean_cost_kj == pytest.approx(160.0)
    assert cell.min_cost_kj == 150.0
    assert cell.max_cost_kj == 170.0
    assert cell.stddev_cost_kj == pytest.approx(statistics.pstdev([150.0, 170.0]))
    assert cell.baseline_cost_kj == 200.0
    assert cell.improvement_pct == pytest.approx(20.0)
    base = s.cell("back-and-forth", "single")
    assert base.improvement_pct is None
    assert base.trials_valid == 1


def test_summarize_no_valid_trials():
    reports = [report("MMAS", "dual", 1, False, 90.0)]
    cell = summarize(reports).cell("MMAS", "dual")
    assert cell.trials_run == 1 and cell.trials_valid == 0
    assert cell.mean_cost_kj is None
    assert cell.error == "no valid solutions"


def test_summarize_orders_cells():
    reports = [
        report("back-and-forth", "single", 1, True, 1.0),
        report("AS", "single", 1, True, 1.0),
        report("MMAS", "dual", 1, True, 1.0),
    ]
    s = summarize(reports)
    assert [(c.solver, c.problem) for c in s.cells] == [
        ("AS", "single"), ("MMAS", "dual"), ("back-and-forth", "single")]


def test_run_benchmark_counts_and_order():
    cfg = BenchConfig(n_trials=3, aco=dataclasses.replace(FAST_ACO, seed=7))
    summary, reports, best = run_benchmark(open_map(), cfg)
    # 1 baseline trial + 3 each for AS and MMAS; the dual cells error (one station)
    assert len(reports) == 7
    assert [r.seed for r in reports if r.solver == "AS"] == [7, 8, 9]
    assert [r.seed for r in reports if r.solver == "back-and-forth"] == [7]
    assert [(r.solver, r.problem, r.seed) for r in reports] == sorted(
        (r.solver, r.problem, r.seed) for r in reports)
    assert ("AS", "single") in best and best[("AS", "single")].valid
    assert summary.n_trials == 3 and summary.base_seed == 7


def test_bench_seed_has_one_home():
    # trial i runs with the AcoParams seed + i (see the test above); no other
    # field sets a seed, and the default bench runs seeds 42-71
    assert [f.name for f in dataclasses.fields(BenchConfig)] == ["n_trials", "model", "aco"]
    assert BenchConfig() == BenchConfig(30, EnergyModel(), AcoParams(seed=42))


def test_run_benchmark_dual_cell_error_with_one_station():
    cfg = BenchConfig(n_trials=2, aco=FAST_ACO)
    summary, reports, _ = run_benchmark(open_map(), cfg)
    assert all(r.problem == "single" for r in reports)
    for solver in ("AS", "MMAS", "back-and-forth"):
        cell = summary.cell(solver, "dual")
        assert cell.trials_run == 0
        assert "station" in cell.error
    assert summary.cell("AS", "single").trials_valid == 2


def test_run_benchmark_dual_runs_with_two_stations():
    m = open_map(120, 40, stations=((0, 20), (114, 20)))
    cfg = BenchConfig(n_trials=2, aco=FAST_ACO)
    summary, reports, best = run_benchmark(m, cfg)
    dual = summary.cell("AS", "dual")
    assert dual.trials_run == 2
    assert dual.trials_valid >= 1
    assert best[("back-and-forth", "dual")].drones[0].station == 0


def test_run_benchmark_persists_deterministically():
    m = open_map(120, 40, stations=((0, 20), (114, 20)))
    cfg = BenchConfig(n_trials=2, aco=FAST_ACO)
    (s1, r1, _), (s2, r2, _) = (run_benchmark(m, cfg) for _ in range(2))

    def masked(reports):
        rows = [json.loads(json.dumps(r.to_json_dict())) for r in reports]
        for row in rows:
            assert row["schema"] == 1
            assert row.pop("wall_time_ms") >= 0.0
        return rows

    assert masked(r1) == masked(r2)
    assert json.dumps(s1.to_json_dict()) == json.dumps(s2.to_json_dict())
    summary = s1.to_json_dict()
    assert summary["schema"] == 1
    assert len(summary["cells"]) == 6


def test_bench_json_key_order():
    cfg = BenchConfig(n_trials=1, aco=FAST_ACO)
    summary, reports, _ = run_benchmark(open_map(), cfg)
    row = json.loads(json.dumps(reports[0].to_json_dict()))
    assert list(row) == ["schema", "solver", "problem", "seed", "valid", "cost_kj",
                         "distance_m", "turn_deg", "wall_time_ms"]
    summary = json.loads(json.dumps(summary.to_json_dict()))
    assert list(summary) == ["schema", "n_trials", "base_seed", "cells"]
    assert list(summary["cells"][0]) == [
        "solver", "problem", "trials_run", "trials_valid", "mean_cost_kj", "min_cost_kj",
        "max_cost_kj", "stddev_cost_kj", "baseline_cost_kj", "improvement_pct", "error"]


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(n_trials=0)
    with pytest.raises(ValueError, match="n_trials"):
        BenchConfig(n_trials=1.5)  # range() would raise TypeError in run_benchmark
    with pytest.raises(ValueError, match="n_trials"):
        BenchConfig(n_trials=True)
