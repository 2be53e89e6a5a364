"""Tests for the benchmark's own code: the farm generator and the metric
arithmetic. Run with ``python3 -m pytest perfbench -q`` from the repository
root."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import farmpatrol as fp  # noqa: E402
from farms import FarmSpec, generate_farm  # noqa: E402
import run  # noqa: E402
from run import WORKLOADS, PlanRecord, Workload, energy_ratio  # noqa: E402
from tracing import (CALIBRATION_REF_S, best_iteration, covered_length,  # noqa: E402
                     first_within, fleet_history, load_factors, self_times,
                     time_to_target)

SPECS = sorted({(name, spec) for name, w in WORKLOADS.items()
                for _, spec in w.farms if spec is not None},
               key=lambda item: item[1].n_valid)


@pytest.mark.parametrize("spec", [s for _, s in SPECS])
def test_same_seed_same_map(spec):
    assert generate_farm(spec, 7) == generate_farm(spec, 7)
    assert generate_farm(spec, 7) != generate_farm(spec, 8)


@pytest.mark.parametrize("spec,seeds", [(s, range(12) if s.n_valid < 200 else range(2))
                                        for _, s in SPECS])
def test_generated_maps_load_and_connect(spec, seeds):
    for seed in seeds:
        farm = fp.load_map(json.dumps(generate_farm(spec, seed)))
        wp = fp.generate_waypoints(farm)
        assert wp.n_valid == spec.n_valid
        assert sum(isinstance(o, fp.Rect) for o in farm.obstacles) == spec.rects
        for station in range(2):
            fp.build_graph(farm, wp, station)  # raises when disconnected
        for station, half in enumerate(fp.partition(farm, wp, 2)):
            fp.build_graph(farm, wp, station, include=half)


def test_generator_refuses_impossible_spec():
    with pytest.raises(ValueError):
        generate_farm(FarmSpec(300, 175, on_grid=30, mid_cell=0), 0)


def test_time_to_target_interpolates_by_iteration():
    assert time_to_target(8.0, 0, 4) == 2.0
    assert time_to_target(8.0, 3, 4) == 8.0
    with pytest.raises(ValueError):
        time_to_target(8.0, 4, 4)


def test_first_within_and_fleet_history():
    class Run:
        def __init__(self, history):
            self.best_cost_history = history

    history = fleet_history([Run([math.inf, 10.0, 8.0]), Run([5.0, 5.0, 4.0])])
    assert history == [math.inf, 15.0, 12.0]
    assert first_within(history, 15.0) == 1
    assert first_within(history, 12.5) == 2
    assert first_within(history, 11.0) is None
    assert best_iteration([9.0, 7.0, 7.0, 7.0]) == 1


def test_load_factors_use_the_calibrations_around_each_step():
    ref = CALIBRATION_REF_S
    assert load_factors([ref, ref, 3 * ref]) == pytest.approx([1.0, 0.5])
    assert load_factors([ref]) == []


def test_self_time_subtracts_union_of_children():
    spans = [
        ["fleet.plan_fleet", 0.0, 10.0, None, 1],
        ["routegraph.build_graph", 1.0, 3.0, 0, 1],
        ["aco.solve", 2.0, 4.0, 0, 1],      # overlaps the previous child
        ["energy.path_metrics", 2.5, 3.5, 2, 1],
        ["render.render_svg", 6.0, 7.0, 0, 1],
    ]
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_energy_ratio_compares_colony_plans_with_their_sweep():
    def rec(farm, problem, solver, cost):
        r = PlanRecord(farm, problem, solver, 0)
        r.cost_kj = cost
        return r

    records = [rec("a", "single", "back-and-forth", 100.0), rec("a", "single", "AS", 80.0),
               rec("a", "dual", "back-and-forth", 200.0), rec("a", "dual", "MMAS", 180.0)]
    assert energy_ratio(records) == pytest.approx(0.85)
    assert energy_ratio([r for r in records if r.solver == "back-and-forth"]) == 1.0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-colony",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_printed_metrics_are_the_declared_ones(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(WORKLOADS, "tiny", Workload(
        farms=(("reference", None),), colony_seeds=(1,), n_iterations=3,
        target_fraction=2.0))
    monkeypatch.setattr(run, "setup_pass", lambda name, seed: {
        "setup_s": 0.25, "load_map_s": 0.001, "generate_waypoints_s": 0.001, "waypoints": 37})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared[key]}
