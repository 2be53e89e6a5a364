import dataclasses
import random

import pytest

import oracles
from farmpatrol.baseline import _serpentine_targets, plan_back_and_forth
from farmpatrol.energy import EnergyModel
from farmpatrol.fleet import PlanningError, partition
from farmpatrol.geometry import Point2D, Rect
from farmpatrol.routegraph import DisconnectedGraphError, build_graph
from farmpatrol.world import (FarmMap, MapSchemaError, generate_waypoints, load_map,
                              reference_farm)
from test_fuzz import random_map

MODEL = EnergyModel()


def make_map(width=100, height=100, obstacles=(), stations=((-10, 0),), spacing=38.0):
    return FarmMap(Point2D(0, 0), Point2D(width, height), tuple(obstacles),
                   tuple(Point2D(*s) for s in stations), 10.0, spacing)


def test_serpentine_order_on_open_grid():
    m = make_map()
    w = generate_waypoints(m)
    g = build_graph(m, w, 0)
    t = plan_back_and_forth(g, MODEL, w)
    assert t.nodes == (9, 0, 1, 2, 5, 4, 3, 6, 7, 8, 9)
    assert t.is_valid
    pts = [(g.xy[k, 0], g.xy[k, 1]) for k in t.nodes]
    assert t.cost_kj == pytest.approx(
        oracles.polyline_cost(pts, MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg), rel=1e-12)


def test_overflowing_energy_scale_is_rejected():
    m = make_map()
    w = generate_waypoints(m)
    g = build_graph(m, w, 0)
    with pytest.raises(ValueError, match="energy scale"):
        plan_back_and_forth(g, EnergyModel(1e306, 0.0173), w)


def test_single_waypoint_out_and_back():
    # one waypoint 10 m from the station: fly out, reverse, fly home
    m = make_map(width=10, height=10, stations=((6, 8),))
    w = generate_waypoints(m)
    assert len(w.points) == 1
    g = build_graph(m, w, 0)
    t = plan_back_and_forth(g, MODEL, w)
    expect = 2 * MODEL.lambda_kj_per_m * 10.0 + MODEL.gamma_kj_per_deg * 180.0
    assert t.cost_kj == pytest.approx(expect, rel=1e-12)
    assert t.is_valid


def test_wall_forces_detour_with_revisits():
    wall = Rect(Point2D(18, -10), Point2D(22, 30))
    m = make_map(width=80, height=40, obstacles=(wall,), stations=((80, 20),), spacing=40.0)
    w = generate_waypoints(m)
    g = build_graph(m, w, 0)
    t = plan_back_and_forth(g, MODEL, w)
    assert t.is_valid
    # all six waypoints covered
    assert set(t.nodes) >= set(range(6))
    # the wall detour makes the walk longer than a plain 6-stop loop
    assert len(t.nodes) > 8
    for a, b in zip(t.nodes, t.nodes[1:]):
        assert g.adj[a, b]


def test_tall_field_sweeps_vertically():
    m = make_map(width=40, height=100, stations=((-10, 0),), spacing=38.0)
    w = generate_waypoints(m)
    g = build_graph(m, w, 0)
    t = plan_back_and_forth(g, MODEL, w)
    # 2 columns x 3 rows; serpentine runs along y (the longer axis)
    cols = [g.point(n).x for n in t.nodes[1:-1]]
    assert cols == [0, 0, 0, 38, 38, 38]
    ys = [g.point(n).y for n in t.nodes[1:-1]]
    assert ys == [0, 38, 76, 76, 38, 0]


def test_deterministic():
    m = make_map()
    w = generate_waypoints(m)
    g = build_graph(m, w, 0)
    assert plan_back_and_forth(g, MODEL, w).nodes == plan_back_and_forth(g, MODEL, w).nodes


def test_empty_graph_rejected():
    # a map whose only waypoint is invalid leaves nothing to cover
    from farmpatrol.geometry import Circle
    m = make_map(width=10, height=10, stations=((6, 8),),
                 obstacles=(Circle(Point2D(0, 0), 2.0),))
    w = generate_waypoints(m)
    assert w.n_valid == 0
    g = build_graph(m, w, 0)
    with pytest.raises(ValueError, match="no waypoints"):
        plan_back_and_forth(g, MODEL, w)


def tier1_random_maps() -> list[dict]:
    """The random map documents the suite lays elsewhere: the screen's seeds
    0-199 and the two 100-map streams of test_fuzz's planning runs."""
    docs = [random_map(random.Random(seed)) for seed in range(200)]
    for stream in (11, 12):
        rng = random.Random(stream)
        docs += [random_map(rng) for _ in range(100)]
    return docs


def sweep_graphs(farm, waypoints):
    """Every graph a plan of farm may sweep: the full graph and both halves
    of a two-drone split, each from every station. A one-station farm is
    split as if its station stood twice."""
    two = farm if len(farm.stations) == 2 else dataclasses.replace(
        farm, stations=farm.stations * 2)
    try:
        halves = partition(two, waypoints, 2)
    except PlanningError:
        halves = []
    for station in range(len(farm.stations)):
        for include in [None] + halves:
            try:
                g = build_graph(farm, waypoints, station, include)
            except DisconnectedGraphError:
                continue
            if g.n_waypoints:
                yield g


def test_sweep_order_equals_the_coordinate_sorting_oracle():
    farms = [("reference", reference_farm())]
    for k, doc in enumerate(tier1_random_maps()):
        try:
            farms.append((f"random {k}", load_map(doc)))
        except MapSchemaError:
            pass
    maps = graphs = tall = 0
    for name, farm in farms:
        waypoints = generate_waypoints(farm)
        checked = 0
        for g in sweep_graphs(farm, waypoints):
            expect = oracles.serpentine_order(
                g.xy[:-1].tolist(), [waypoints.row_col(i) for i in g.waypoint_grid_ids],
                [(p.x, p.y) for p in waypoints.points], g.xy[g.home].tolist())
            assert _serpentine_targets(g, waypoints) == expect, (name, g.waypoint_grid_ids)
            checked += 1
        maps += checked > 0
        graphs += checked
        first, last = waypoints.points[0], waypoints.points[-1]
        tall += checked > 0 and last.x - first.x < last.y - first.y
    # the full graph and two halves a map on average, and tall grids among them
    assert maps >= 200 and graphs >= 3 * maps and tall >= 20, (maps, graphs, tall)
