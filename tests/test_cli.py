import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import farmpatrol.cli
import farmpatrol.harness
from farmpatrol.aco import AcoParams, solve
from farmpatrol.cli import main
from farmpatrol.energy import EnergyModel
from farmpatrol.harness import BenchConfig
from farmpatrol.routegraph import DisconnectedGraphError, build_graph
from farmpatrol.world import generate_waypoints, load_map_file

REFERENCE_MAP = str(resources.files("farmpatrol").joinpath("data/reference_farm.json"))


def write_map(path, **overrides):
    doc = {
        "perimeter": {"min": [0, 0], "max": [60, 60]},
        "obstacles": [],
        "stations": [[5, 5]],
        "clearance_m": 2.0,
        "grid_spacing_m": 20.0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def farm_file(tmp_path):
    return write_map(tmp_path / "farm.json")


def test_validate_ok(farm_file, capsys):
    assert main(["validate", farm_file]) == 0
    out = capsys.readouterr().out
    assert "map ok" in out
    assert "waypoints: 16 valid of 16" in out


def test_validate_counts_the_edges_of_each_station_graph(capsys):
    assert main(["validate", REFERENCE_MAP]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "station 0: graph ok, 38 nodes, 404 edges" in lines
    assert "station 1: graph ok, 38 nodes, 401 edges" in lines
    farm = load_map_file(REFERENCE_MAP)
    waypoints = generate_waypoints(farm)
    assert [len(build_graph(farm, waypoints, k).edges()) for k in (0, 1)] == [404, 401]


def test_validate_schema_error_exits_2(tmp_path, capsys):
    p = write_map(tmp_path / "bad.json", stations="oops")
    assert main(["validate", p]) == 2
    assert "map error" in capsys.readouterr().err


def test_validate_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_validate_disconnected_exits_3(tmp_path, capsys):
    # wall splits the field top to bottom
    p = write_map(tmp_path / "split.json",
                  obstacles=[{"type": "rect", "min": [25, 0], "max": [35, 60]}])
    assert main(["validate", p]) == 3
    assert "connectivity error" in capsys.readouterr().err


def test_a_disconnected_grid_is_named_in_one_short_line(tmp_path, capsys):
    # a wall across a 600 x 350 m field cuts off 70 waypoints
    p = write_map(tmp_path / "split.json", perimeter={"min": [0, 0], "max": [600, 350]},
                  obstacles=[{"type": "rect", "min": [290, 0], "max": [310, 350]}],
                  grid_spacing_m=38.0)
    assert main(["validate", p]) == 3
    err = capsys.readouterr().err
    assert err.startswith("connectivity error:") and err.count("\n") == 1
    assert len(err.encode()) < 500 and err.rstrip().endswith("and 65 more")
    farm = load_map_file(p)
    with pytest.raises(DisconnectedGraphError) as caught:
        build_graph(farm, generate_waypoints(farm), 0)
    assert len(caught.value.unreachable) == 70


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["plan", "{map}", "--iterations", "5", "--out", "{dir}"],
    ["plan", "{map}", "--iterations", "5", "--out", "{dir}/tour.json", "--svg", "{dir}"],
    ["render", "{map}", "--out", "{dir}"],
    ["bench", "{map}", "--iterations", "5", "--trials", "1", "--out-dir", "{file}"],
    ["plan", "{map}", "--iterations", "5", "--out", "{dir}/missing/tour.json"],
    ["plan", "{map}", "--iterations", "5", "--out", "{dir}/tour.json",
     "--svg", "{dir}/missing/tour.svg"],
    ["render", "{map}", "--solver", "as", "--iterations", "5",
     "--out", "{dir}/missing/map.svg"],
])
def test_unreadable_or_unwritable_path_is_one_error_line(farm_file, tmp_path, capsys,
                                                         monkeypatch, argv):
    # a directory cannot be read or written as a file, and bench cannot make
    # its output directory where a file already is; either way the command
    # fails before it plans anything or writes a file
    plans = []
    for module in (farmpatrol.cli, farmpatrol.harness):
        monkeypatch.setattr(module, "plan_fleet", lambda *a: plans.append(a))
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {"map": farm_file, "dir": str(tmp_path), "file": str(taken)}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert plans == []
    assert not (tmp_path / "tour.json").exists()


@pytest.mark.parametrize("flags", [
    ["--lambda", "1e308", "--gamma", "1e308"],
    ["--solver", "as", "--lambda", "1e306"],
    ["--solver", "mmas", "--lambda", "1e306"],
    ["--solver", "back-and-forth", "--lambda", "1e306"],
])
def test_overflowing_energy_scale_exits_1(tmp_path, capsys, flags):
    p = write_map(tmp_path / "farm.json", perimeter={"min": [0, 0], "max": [300, 175]},
                  grid_spacing_m=38.0)
    out = tmp_path / "tour.json"
    assert main(["plan", p, "--iterations", "5", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: energy scale") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_overflowing_map_coordinates_are_one_error_line(tmp_path, capsys):
    p = write_map(tmp_path / "farm.json", perimeter={"min": [0, 0], "max": [4e307, 4e307]},
                  grid_spacing_m=1e307, stations=[[0, 0]], clearance_m=0.0)
    out = tmp_path / "tour.json"
    assert main(["plan", p, "--solver", "back-and-forth", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: energy scale") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--lambda", "1e-200", "--gamma", "0", "--alpha", "2", "--iterations", "3"],
    ["--lambda", "1e-300", "--gamma", "1e-300", "--iterations", "3"],
    ["--solver", "as", "--drones", "2", "--iterations", "2", "--alpha", "1e308"],
    ["--solver", "mmas", "--drones", "2", "--iterations", "2", "--rho", "1e-320"],
    ["--lambda", "1e-320", "--gamma", "1e-320", "--iterations", "2"],
])
def test_extreme_colony_weights_plan_a_valid_tour(tmp_path, capsys, flags):
    # tiny coefficients or rho overflow eta or the trails, a huge alpha
    # overflows tau^alpha
    out = tmp_path / "tour.json"
    assert main(["plan", REFERENCE_MAP, "--out", str(out), *flags]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["valid"] is True


@pytest.mark.parametrize("command", ["plan", "bench"])
def test_an_ant_count_too_large_to_allocate_is_one_error_line(tmp_path, capsys, command):
    # the ants' walks would take 277 PiB, past any 64-bit address space, so
    # the allocation is refused before a page is touched
    out = ["--out", str(tmp_path / "tour.json")] if command == "plan" \
        else ["--out-dir", str(tmp_path / "bench"), "--trials", "1"]
    assert main([command, REFERENCE_MAP, "--ants", "1000000000000000", "--iterations", "1",
                 *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "tour.json").exists()


def test_a_plan_never_loads_numpy_random(tmp_path):
    # numpy.random adds about 6 MB to a plan's memory; other tests load it
    # into this process, so the plan runs in a fresh interpreter
    src = str(Path(farmpatrol.cli.__file__).parents[1])
    argv = ["plan", REFERENCE_MAP, "--iterations", "2", "--out", str(tmp_path / "tour.json")]
    script = ("import sys\nfrom farmpatrol.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_plan_with_the_station_on_a_waypoint(tmp_path, capsys):
    p = write_map(tmp_path / "farm.json", stations=[[20, 20]], clearance_m=0.0)
    out = tmp_path / "tour.json"
    code = main(["plan", p, "--iterations", "5", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["valid"] is True


def test_plan_with_a_tiny_grid_spacing_exits_2(tmp_path, capsys):
    p = write_map(tmp_path / "farm.json", perimeter={"min": [0, 0], "max": [300, 175]})
    out = tmp_path / "tour.json"
    assert main(["plan", p, "--spacing", "0.001", "--out", str(out)]) == 2
    assert "grid_spacing_m" in capsys.readouterr().err
    assert not out.exists()


def test_plan_writes_export_and_svg(farm_file, tmp_path, capsys):
    out = tmp_path / "tour.json"
    svg = tmp_path / "tour.svg"
    code = main(["plan", farm_file, "--seed", "3", "--iterations", "20",
                 "--out", str(out), "--svg", str(svg)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["solver"] == "AS"
    assert doc["valid"] is True
    assert doc["n_drones"] == 1
    d = doc["drones"][0]
    assert d["station"] == 0
    assert len(d["waypoints"]) == len(set(
        (p["x"], p["y"]) for p in d["waypoints"])) + 1  # closed walk
    assert all(p["altitude_m"] == 20.0 for p in d["waypoints"])
    assert doc["total_cost_kj"] == pytest.approx(d["cost_kj"])
    text = svg.read_text()
    assert text.startswith("<svg") and 'class="tour"' in text
    assert "total:" in capsys.readouterr().out


def test_plan_baseline_solver(farm_file, tmp_path):
    out = tmp_path / "bf.json"
    assert main(["plan", farm_file, "--solver", "back-and-forth",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solver"] == "back-and-forth"


@pytest.mark.parametrize("solver", ["as", "mmas"])
def test_plan_with_no_valid_colony_tour_exits_4(tmp_path, capsys, solver):
    # two walls cut the three waypoints apart: every leg runs through home,
    # so an ant strands after its first waypoint, while the sweep detours
    p = write_map(tmp_path / "star.json",
                  perimeter={"min": [0, 0], "max": [76, 30]}, grid_spacing_m=38,
                  clearance_m=1, stations=[[38, 28]],
                  obstacles=[{"type": "rect", "min": [17, -50], "max": [21, 10]},
                             {"type": "rect", "min": [55, -50], "max": [59, 10]}])
    out = tmp_path / "tour.json"
    assert main(["plan", p, "--solver", solver, "--iterations", "5",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "planning failed: no valid coverage tour found\n"
    assert json.loads(out.read_text())["valid"] is False
    assert main(["plan", p, "--solver", "back-and-forth", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["valid"] is True


def test_plan_two_drones_one_station_exits_4(farm_file, tmp_path, capsys):
    code = main(["plan", farm_file, "--drones", "2", "--iterations", "5",
                 "--out", str(tmp_path / "x.json")])
    assert code == 4
    assert "planning error" in capsys.readouterr().err


def test_plan_seed_resolution(farm_file, tmp_path, monkeypatch):
    def run(seed_args, name, env=None):
        if env is None:
            monkeypatch.delenv("GUARD_SEED", raising=False)
        else:
            monkeypatch.setenv("GUARD_SEED", env)
        out = tmp_path / name
        assert main(["plan", farm_file, "--iterations", "15",
                     "--out", str(out), *seed_args]) == 0
        return out.read_text()

    flagged = run(["--seed", "7"], "a.json")
    assert run([], "b.json", env="7") == flagged            # env fallback
    assert run(["--seed", "7"], "c.json", env="99") == flagged  # flag wins
    assert run([], "d.json") == run(["--seed", "42"], "e.json")  # default 42


@pytest.mark.parametrize("command", ["plan", "bench"])
def test_bare_command_keeps_the_library_defaults(farm_file, tmp_path, monkeypatch, command):
    # flags left out are not passed on, so AcoParams and BenchConfig set them
    monkeypatch.delenv("GUARD_SEED", raising=False)
    calls = []

    class Stop(Exception):
        pass

    def stop(*args):  # record the params or config, then end the command
        calls.append(args[-1])
        raise Stop

    monkeypatch.setattr(farmpatrol.cli, "plan_fleet", stop)
    monkeypatch.setattr(farmpatrol.cli, "run_benchmark", stop)
    out = ["--out", str(tmp_path / "x.json")] if command == "plan" \
        else ["--out-dir", str(tmp_path / "bench")]
    with pytest.raises(Stop):
        main([command, farm_file, *out])
    want = {"plan": AcoParams(seed=42),
            "bench": BenchConfig()}[command]
    assert calls == [want]


def test_plan_rejects_unknown_solver(farm_file, capsys):
    # a bad flag value is one error line and exit 1, as documented; exit 2
    # is a malformed map's
    assert main(["plan", farm_file, "--solver", "genetic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --solver") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--ants", "abc"], ["--drones", "3"], None])
def test_an_unparsable_command_line_is_one_error_line(farm_file, capsys, flags):
    argv = ["plan"] if flags is None else ["plan", farm_file, *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_prints_usage_and_exits_0(capsys):
    for command in ("plan", "render"):  # both fall back to $GUARD_SEED
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: farmpatrol {command}")
        assert "GUARD_SEED" in out


def test_help_names_the_colony_defaults_solve_uses(tmp_path, capsys):
    # --rho and --ants say what solve does when they are left out
    with pytest.raises(SystemExit):
        main(["plan", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    rhos = re.search(r"evaporation rate \(default ([^)]*)\)", out)[1]
    rho = {variant: float(value) for value, variant in re.findall(r"([\d.]+) (\w+)", rhos)}
    cap = int(re.search(r"one per waypoint, max (\d+)\)", out)[1])
    assert sorted(rho) == ["AS", "MMAS"]
    farm = load_map_file(write_map(tmp_path / "farm.json",
                                   perimeter={"min": [0, 0], "max": [160, 160]}))
    g = build_graph(farm, generate_waypoints(farm), 0)
    assert g.n_waypoints > cap

    def traced(**kw):
        seen = []
        solve(g, EnergyModel(), AcoParams(n_iterations=2, seed=1, **kw),
              trace=lambda it, tau, bounds, ants: seen.append((tau, len(ants))))
        return seen

    for variant, value in rho.items():
        left_out = traced(variant=variant)
        named = traced(variant=variant, rho=value, n_ants=cap)
        assert [ants for _, ants in left_out] == [cap, cap]
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(left_out, named, strict=True))


def test_plan_on_a_map_without_stations_exits_4(tmp_path, capsys):
    p = write_map(tmp_path / "farm.json", stations=[])
    assert main(["plan", p, "--iterations", "2", "--out", str(tmp_path / "x.json")]) == 4
    err = capsys.readouterr().err
    assert err == "planning error: 1 drone needs 1 station, map has 0\n"


def test_spacing_and_clearance_overrides(tmp_path, capsys):
    p = write_map(tmp_path / "farm.json",
                  obstacles=[{"type": "circle", "center": [20, 5], "radius": 2}])
    assert main(["validate", p, "--spacing", "30"]) == 0
    assert "waypoints: 9 valid of 9" in capsys.readouterr().out
    # clearance wide enough to reach the station fails map validation
    assert main(["validate", p, "--clearance", "14"]) == 2


def test_bench_outputs(farm_file, tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code = main(["bench", farm_file, "--trials", "2", "--base-seed", "11",
                 "--iterations", "15", "--out-dir", str(out_dir)])
    assert code == 0
    lines = (out_dir / "trials.jsonl").read_text().splitlines()
    assert lines and all(json.loads(l)["schema"] == 1 for l in lines)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["n_trials"] == 2
    # single-drone cells succeed; dual cells error (one station) but only
    # abort their own cell
    by_cell = {(c["solver"], c["problem"]): c for c in summary["cells"]}
    assert by_cell[("AS", "single")]["trials_valid"] == 2
    assert by_cell[("AS", "dual")]["error"]
    assert (out_dir / "best_AS_single.svg").exists()
    out = capsys.readouterr().out
    assert "solver" in out and "back-and-forth" in out


def test_render_map_only_and_with_plan(farm_file, tmp_path):
    plain = tmp_path / "m.svg"
    assert main(["render", farm_file, "--out", str(plain)]) == 0
    text = plain.read_text()
    assert 'class="waypoint"' in text and 'class="tour"' not in text

    planned = tmp_path / "p.svg"
    assert main(["render", farm_file, "--solver", "mmas", "--seed", "2",
                 "--iterations", "15", "--out", str(planned)]) == 0
    assert 'class="tour"' in planned.read_text()


def test_plan_determinism_across_runs(farm_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["plan", farm_file, "--solver", "mmas", "--seed", "5",
            "--iterations", "20"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.filterwarnings("error")  # a warning would otherwise reach stderr
@pytest.mark.parametrize("flags", [[], ["--solver", "mmas", "--drones", "2"]])
def test_tiny_distance_coefficient_plans_silently(tmp_path, capsys, flags):
    assert main(["plan", REFERENCE_MAP, "--lambda", "1e-320", "--iterations", "3",
                 "--out", str(tmp_path / "tour.json"), *flags]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["plan", "bench"])
@pytest.mark.parametrize("flags,env,message", [
    (["--rho", "2"], None, "rho"),
    (["--lambda", "-1"], None, "lambda_kj_per_m"),
    (["--ants", "0"], None, "n_ants"),
    ([], "x", "GUARD_SEED"),
])
def test_bad_flag_or_env_is_one_error_line(farm_file, tmp_path, monkeypatch, capsys,
                                           command, flags, env, message):
    if env is None:
        monkeypatch.delenv("GUARD_SEED", raising=False)
    else:
        monkeypatch.setenv("GUARD_SEED", env)
    out = ["--out", str(tmp_path / "x.json")] if command == "plan" \
        else ["--out-dir", str(tmp_path / "bench"), "--trials", "1"]
    assert main([command, farm_file, "--iterations", "5", *out, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
