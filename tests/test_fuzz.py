"""Seeded random maps and CLI flag values. On a random map, load_map returns
a FarmMap or raises MapSchemaError, and plan_fleet returns a plan whose
exported paths reproduce each drone's cost, or raises DisconnectedGraphError
or PlanningError. On any numeric flag value, `farmpatrol plan` exits with a
documented code and writes at most one line to stderr."""

import random
from importlib import resources

import pytest

from farmpatrol.aco import AcoParams
from farmpatrol.cli import main
from farmpatrol.energy import EnergyModel
from farmpatrol.fleet import SOLVERS, PlanningError, plan_fleet
from farmpatrol.render import export_path, verify_export
from farmpatrol.routegraph import DisconnectedGraphError
from farmpatrol.world import FarmMap, MapSchemaError, generate_waypoints, load_map

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


def test_random_maps_plan_or_fail_typed():
    rng = random.Random(11)
    outcomes = {"schema": 0, "planned": 0, "typed": 0}
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
                    doc_path = export_path(d.tour, d.graph, d.altitude_m)
                    cost = verify_export(doc_path, MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg)
                    assert cost == pytest.approx(d.tour.cost_kj, rel=1e-9, abs=1e-9), (doc, solver)
    assert min(outcomes.values()) > 0, outcomes  # every outcome is exercised


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


def plan_cases(rng: random.Random):
    """Every value of every flag alone, in turn under AS with one drone and
    MMAS with two, then seeded mixes of two or three flags under any solver."""
    alone = [(flag, value) for flag, values in FLAGS.items() for value in values]
    for k, (flag, value) in enumerate(alone):
        yield ("as", "1") if k % 2 == 0 else ("mmas", "2"), [(flag, value)]
    for _ in range(30):
        chosen = rng.sample(sorted(FLAGS), rng.randint(2, 3))
        yield ((rng.choice(["as", "mmas", "back-and-forth"]), rng.choice(["1", "2"])),
               [(flag, rng.choice(FLAGS[flag])) for flag in chosen])


def test_numeric_flag_values_exit_documented(tmp_path, capsys):
    out = str(tmp_path / "tour.json")
    for (solver, drones), flags in plan_cases(random.Random(5)):
        argv = ["plan", REFERENCE_MAP, "--iterations", "2", "--out", out,
                "--solver", solver, "--drones", drones]
        argv += [f"{flag}={value}" for flag, value in flags]  # "-inf" is not an option
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3, 4), argv
        assert err.count("\n") == (code != 0), (argv, err)
