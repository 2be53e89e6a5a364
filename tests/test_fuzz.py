"""Seeded random maps and CLI flag values. On a random map, load_map returns
a FarmMap or raises MapSchemaError, and plan_fleet returns a plan whose
exported paths reproduce each drone's cost, or raises DisconnectedGraphError
or PlanningError. On any numeric flag value, `farmpatrol plan` exits with a
documented code and writes at most one line to stderr, and so do `bench`
and `render` on a few values per flag. The maps and the colony flags also
run with the heading-row budget shrunk, so that the ants use candidate
lists (see aco._Space)."""

import random
from importlib import resources

import pytest

from farmpatrol import aco
from farmpatrol.aco import AcoParams
from farmpatrol.cli import main
from farmpatrol.energy import EnergyModel
from farmpatrol.fleet import SOLVERS, PlanningError, plan_fleet
from farmpatrol.render import export_path, verify_export
from farmpatrol.routegraph import DisconnectedGraphError, build_graph
from farmpatrol.world import (FarmMap, MapSchemaError, generate_waypoints, load_map,
                              reference_farm)

MODEL = EnergyModel()
MAX_WAYPOINTS = 60  # larger grids take too long to plan six times over
REFERENCE_MAP = str(resources.files("farmpatrol").joinpath("data/reference_farm.json"))


def random_map(rng: random.Random) -> dict:
    """A map document: a perimeter of up to 9 x 7 grid cells (one row at
    times), circles and boxes anywhere, clearance 0 or more, and stations on
    an edge, on a grid waypoint or anywhere inside."""
    s = rng.choice([5.0, 12.5, 20.0, 38.0, rng.uniform(4.0, 60.0)])
    x0, y0 = rng.uniform(-100, 100), rng.uniform(-100, 100)
    # a side of whole cells, sometimes with a part cell, sometimes one row
    w = rng.randint(1, 9) * s + rng.choice([0.0, rng.uniform(0, s)])
    h = rng.choice([rng.uniform(0.5, 0.99) * s, rng.randint(1, 7) * s + rng.uniform(0, s)])
    obstacles = []
    for _ in range(rng.randint(0, 5)):
        cx, cy = rng.uniform(x0, x0 + w), rng.uniform(y0, y0 + h)
        if rng.random() < 0.5:
            obstacles.append({"type": "circle", "center": [cx, cy],
                              "radius": rng.uniform(0.5, 1.5 * s)})
        else:
            obstacles.append({"type": "rect", "min": [cx, cy],
                              "max": [cx + rng.uniform(0.5, 2 * s), cy + rng.uniform(0.5, s)]})

    def station():
        kind = rng.choice(["edge", "waypoint", "inside"])
        if kind == "edge":
            return rng.choice([[x0, rng.uniform(y0, y0 + h)], [x0 + w, rng.uniform(y0, y0 + h)],
                               [rng.uniform(x0, x0 + w), y0], [rng.uniform(x0, x0 + w), y0 + h]])
        if kind == "waypoint":
            return [x0 + s * rng.randint(0, int(w // s)), y0 + s * rng.randint(0, int(h // s))]
        return [rng.uniform(x0, x0 + w), rng.uniform(y0, y0 + h)]

    return {
        "perimeter": {"min": [x0, y0], "max": [x0 + w, y0 + h]},
        "obstacles": obstacles,
        "stations": [station() for _ in range(rng.choice([1, 2, 2]))],
        "clearance_m": rng.choice([0.0, 0.0, rng.uniform(0, 3), rng.uniform(3, 12)]),
        "grid_spacing_m": s,
    }


def past_the_budget(monkeypatch):
    """Shrink the heading-row budget to 64 candidate rows: every graph of
    ten nodes or more is then past it, and its table misses most pairs."""
    monkeypatch.setattr(aco, "_ROW_TABLE_BYTES", 8 * aco._CANDIDATES * 64)


def uses_candidates(g) -> bool:
    return (1 + int(g.adj.sum())) * 8 * g.n_nodes > aco._ROW_TABLE_BYTES


def test_random_maps_plan_or_fail_typed():
    plan_random_maps(random.Random(11))


def test_random_maps_past_the_row_table_budget_plan_or_fail_typed(monkeypatch):
    past_the_budget(monkeypatch)
    assert plan_random_maps(random.Random(12)) > 0


def plan_random_maps(rng: random.Random) -> int:
    """Plan 100 random maps with every solver on one and two drones, check
    every outcome, and return the number of drones whose graph used
    candidate lists."""
    outcomes = {"schema": 0, "planned": 0, "typed": 0}
    candidate_graphs = 0
    for k in range(100):
        doc = random_map(rng)
        try:
            farm = load_map(doc)
        except MapSchemaError:
            outcomes["schema"] += 1
            continue
        assert isinstance(farm, FarmMap)
        waypoints = generate_waypoints(farm)
        if waypoints.n_valid > MAX_WAYPOINTS:
            continue
        for solver in SOLVERS:
            for n_drones in (1, 2):
                params = AcoParams(n_iterations=3, seed=k)
                try:
                    plan = plan_fleet(farm, waypoints, n_drones, solver, MODEL, params)
                except (DisconnectedGraphError, PlanningError):
                    outcomes["typed"] += 1
                    continue
                outcomes["planned"] += 1
                for d in plan.drones:
                    candidate_graphs += solver != "back-and-forth" and uses_candidates(d.graph)
                    doc_path = export_path(d.tour, d.graph, d.altitude_m)
                    cost = verify_export(doc_path, MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg)
                    assert cost == pytest.approx(d.tour.cost_kj, rel=1e-9, abs=1e-9), (doc, solver)
    assert min(outcomes.values()) > 0, outcomes  # every outcome is exercised
    return candidate_graphs


FLOATS = ["0.5", "3", "nan", "inf", "-inf", "1e308", "1e-320", "-1", "-0.0"]
# flag -> values; --spacing is bounded below and --ants and --iterations
# above, so that no case lays a large grid or runs long
FLAGS = {
    "--spacing": ["38", "50", "75", "nan", "inf", "1e308", "1e-320", "-1", "-0.0"],
    "--clearance": FLOATS + ["0", "40"],
    "--lambda": FLOATS,
    "--gamma": FLOATS,
    "--alpha": FLOATS,
    "--beta": FLOATS,
    "--rho": FLOATS + ["0.05", "1"],
    "--ants": ["1", "7", "200", "0", "-3"],
    "--iterations": ["1", "2", "0", "-1"],
    "--seed": ["0", "-5", str(2**70)],
}


SETTINGS = [("as", "1"), ("as", "2"), ("mmas", "2")]  # (solver, drones)


def plan_cases(rng: random.Random):
    """Every value of every flag alone under each of SETTINGS, then seeded
    mixes of two or three flags under any solver."""
    for flag, values in FLAGS.items():
        for value in values:
            for setting in SETTINGS:
                yield setting, [(flag, value)]
    for _ in range(30):
        chosen = rng.sample(sorted(FLAGS), rng.randint(2, 3))
        yield ((rng.choice(["as", "mmas", "back-and-forth"]), rng.choice(["1", "2"])),
               [(flag, rng.choice(FLAGS[flag])) for flag in chosen])


def assert_documented_exit(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4), argv
    assert err.count("\n") == (code != 0), (argv, err)
    return code


def test_numeric_flag_values_exit_documented(tmp_path, capsys):
    out = str(tmp_path / "tour.json")
    for (solver, drones), flags in plan_cases(random.Random(5)):
        argv = ["plan", REFERENCE_MAP, "--iterations", "2", "--out", out,
                "--solver", solver, "--drones", drones]
        argv += [f"{flag}={value}" for flag, value in flags]  # "-inf" is not an option
        assert_documented_exit(argv, capsys)


def test_colony_flag_values_past_the_row_table_budget_exit_documented(tmp_path, capsys,
                                                                      monkeypatch):
    # the weight flags at every value under each of SETTINGS, then infinite
    # trails: MMAS at a tiny rho, AS at a tiny energy model (n_ants / q)
    past_the_budget(monkeypatch)
    farm = reference_farm()
    assert uses_candidates(build_graph(farm, generate_waypoints(farm), 0))
    out = str(tmp_path / "tour.json")
    cases = [(setting, [(flag, value)], False)
             for flag in ("--alpha", "--beta", "--lambda", "--gamma")
             for value in FLAGS[flag] for setting in SETTINGS]
    for drones in ("1", "2"):  # these plan
        cases.append((("mmas", drones), [("--rho", "1e-320")], True))
        cases.append((("as", drones), [("--lambda", "1e-320"), ("--gamma", "1e-320")], True))
        # lambda * d scaled by gamma's power of two underflows to 0 on every edge
        for solver in ("as", "mmas"):
            cases.append(((solver, drones), [("--lambda", "1e-320"), ("--gamma", "1e304")], True))
    for (solver, drones), flags, plans in cases:
        argv = ["plan", REFERENCE_MAP, "--iterations", "2", "--out", out,
                "--solver", solver, "--drones", drones]
        argv += [f"{flag}={value}" for flag, value in flags]
        code = assert_documented_exit(argv, capsys)
        assert code == 0 or not plans, argv


def test_numeric_flag_values_exit_documented_in_bench_and_render(tmp_path, capsys):
    # three seeded values per flag; bench runs AS and MMAS on one and two drones
    rng = random.Random(6)
    for flag, values in FLAGS.items():
        for value in rng.sample(values, 3):
            bench_flag = "--base-seed" if flag == "--seed" else flag
            assert_documented_exit(
                ["bench", REFERENCE_MAP, "--trials", "1", "--iterations", "2",
                 "--out-dir", str(tmp_path / "bench"), f"{bench_flag}={value}"], capsys)
            assert_documented_exit(
                ["render", REFERENCE_MAP, "--solver", "as", "--iterations", "2",
                 "--out", str(tmp_path / "map.svg"), f"{flag}={value}"], capsys)
