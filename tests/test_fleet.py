import pytest

from farmpatrol import fleet
from farmpatrol.aco import AcoParams
from farmpatrol.energy import EnergyModel
from farmpatrol.fleet import (
    BASE_ALTITUDE_M, SEPARATED_ALTITUDE_M, FleetPlan, PlanningError,
    partition, plan_fleet,
)
from farmpatrol.geometry import Point2D
from farmpatrol.world import FarmMap, generate_waypoints, reference_farm

MODEL = EnergyModel()
FAST = AcoParams(n_ants=10, n_iterations=60, seed=0)


def open_map(width, height, stations, spacing=38.0):
    return FarmMap(Point2D(0, 0), Point2D(width, height), (),
                   tuple(Point2D(*s) for s in stations), 10.0, spacing)


def test_partition_single_drone_takes_all():
    m = open_map(160, 80, [(0, 10)])
    w = generate_waypoints(m)
    assert partition(m, w, 1) == [list(w.valid_indices())]


def test_partition_even_columns_split_in_half():
    # 4 columns x 2 rows, stations on opposite ends
    m = open_map(120, 40, [(0, 20), (114, 20)])
    w = generate_waypoints(m)
    left, right = partition(m, w, 2)
    assert sorted(left + right) == list(range(8))
    xs_left = {w.points[g].x for g in left}
    xs_right = {w.points[g].x for g in right}
    assert xs_left == {0.0, 38.0}
    assert xs_right == {76.0, 114.0}


def test_partition_odd_columns_near_station_side():
    # 5 columns, both stations on the west edge: the middle column goes west
    m = open_map(160, 80, [(0, 10), (5, 20)])
    w = generate_waypoints(m)
    a, b = partition(m, w, 2)
    cols_a = {w.points[g].x for g in a}
    cols_b = {w.points[g].x for g in b}
    assert cols_a == {0.0, 38.0, 76.0}   # 3 columns west
    assert cols_b == {114.0, 152.0}      # 2 columns east
    assert len(a) == 9 and len(b) == 6


def test_partition_odd_columns_east_station_nearer():
    # station 1 sits just east of the middle column and claims it
    m = open_map(160, 80, [(0, 10), (90, 20)])
    w = generate_waypoints(m)
    a, b = partition(m, w, 2)
    assert {w.points[g].x for g in a} == {0.0, 38.0}
    assert {w.points[g].x for g in b} == {76.0, 114.0, 152.0}


def test_partition_tall_field_cuts_rows():
    m = open_map(80, 160, [(10, 0), (20, 5)])
    w = generate_waypoints(m)
    a, b = partition(m, w, 2)
    ys_a = {w.points[g].y for g in a}
    ys_b = {w.points[g].y for g in b}
    assert ys_a == {0.0, 38.0, 76.0}
    assert ys_b == {114.0, 152.0}


def test_partition_station_order_decides_ownership():
    # station 0 is the eastern one, so it owns the eastern half
    m = open_map(120, 40, [(114, 20), (0, 20)])
    w = generate_waypoints(m)
    east, west = partition(m, w, 2)
    assert {w.points[g].x for g in east} == {76.0, 114.0}
    assert {w.points[g].x for g in west} == {0.0, 38.0}


def test_partition_guards():
    m = open_map(160, 80, [(0, 10)])
    w = generate_waypoints(m)
    with pytest.raises(PlanningError, match="stations"):
        partition(m, w, 2)
    with pytest.raises(PlanningError, match="must be 1 or 2"):
        partition(m, w, 3)


def test_plan_fleet_single_back_and_forth():
    m = open_map(160, 80, [(0, 10)])
    w = generate_waypoints(m)
    plan = plan_fleet(m, w, 1, "back-and-forth", MODEL)
    assert isinstance(plan, FleetPlan)
    assert plan.valid
    assert len(plan.drones) == 1
    d = plan.drones[0]
    assert d.altitude_m == BASE_ALTITUDE_M
    assert d.run is None
    assert plan.total_cost_kj == d.tour.cost_kj


def test_plan_fleet_unknown_solver():
    m = open_map(160, 80, [(0, 10)])
    w = generate_waypoints(m)
    with pytest.raises(PlanningError, match="unknown solver"):
        plan_fleet(m, w, 1, "greedy", MODEL)


def test_plan_fleet_dual_covers_disjoint_halves():
    m = reference_farm()
    w = generate_waypoints(m)
    plan = plan_fleet(m, w, 2, "AS", MODEL, FAST)
    assert plan.valid
    ids0 = set(plan.drones[0].waypoint_ids)
    ids1 = set(plan.drones[1].waypoint_ids)
    assert ids0.isdisjoint(ids1)
    assert ids0 | ids1 == set(w.valid_indices())
    # each drone's tour visits exactly its own waypoints
    for d in plan.drones:
        covered = {d.graph.waypoint_grid_ids[n] for n in d.tour.nodes[1:-1]}
        assert covered == set(d.waypoint_ids)
        assert d.station in (0, 1)
    assert plan.drones[0].station == 0
    assert plan.drones[1].station == 1


def test_plan_fleet_dual_seed_derivation():
    m = reference_farm()
    w = generate_waypoints(m)
    p1 = plan_fleet(m, w, 2, "AS", MODEL, FAST)
    p2 = plan_fleet(m, w, 2, "AS", MODEL, FAST)
    assert p1.drones[0].tour == p2.drones[0].tour
    assert p1.drones[1].tour == p2.drones[1].tour
    assert p1.drones[0].run.seed == FAST.seed * 2
    assert p1.drones[1].run.seed == FAST.seed * 2 + 1


@pytest.mark.parametrize("solver,n_drones,solves", [
    ("AS", 1, 1), ("MMAS", 1, 1), ("AS", 2, 2), ("MMAS", 2, 2), ("back-and-forth", 2, 0),
])
def test_plan_fleet_solves_every_colony_drone_through_fleet_solve(monkeypatch, solver,
                                                                  n_drones, solves):
    # the benchmark attaches its trace by wrapping the name fleet.solve, so a
    # plan that reached the colony another way would zero every traced aco.*
    # metric while every end-to-end metric stayed green
    calls, fleet_solve = [], fleet.solve

    def counting(g, *args, **kwargs):
        calls.append((g, fleet_solve(g, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(fleet, "solve", counting)
    m = reference_farm()
    plan = plan_fleet(m, generate_waypoints(m), n_drones, solver, MODEL,
                      AcoParams(n_ants=5, n_iterations=3))
    assert len(calls) == solves
    if solves:  # each drone's run is what the wrapper returned for its graph
        assert all(d.graph is g and d.run is run for d, (g, run) in zip(plan.drones, calls))
    else:
        assert all(d.run is None for d in plan.drones)


def test_altitude_separation_when_tracks_cross():
    # both stations in the middle of the west edge: the two tours share the
    # approach corridor and must cross, so drone 1 climbs
    m = reference_farm()
    w = generate_waypoints(m)
    plan = plan_fleet(m, w, 2, "back-and-forth", MODEL)
    alts = [d.altitude_m for d in plan.drones]
    if plan.drones[0].tour.is_valid and plan.drones[1].tour.is_valid:
        assert alts[0] == BASE_ALTITUDE_M
        assert alts[1] in (BASE_ALTITUDE_M, SEPARATED_ALTITUDE_M)


def test_altitude_no_separation_for_disjoint_tracks():
    # stations at opposite ends, field split between them: tracks stay apart
    m = open_map(120, 40, [(0, 20), (114, 20)])
    w = generate_waypoints(m)
    plan = plan_fleet(m, w, 2, "back-and-forth", MODEL)
    assert [d.altitude_m for d in plan.drones] == [BASE_ALTITUDE_M, BASE_ALTITUDE_M]


def test_fleet_totals_are_sums():
    m = reference_farm()
    w = generate_waypoints(m)
    plan = plan_fleet(m, w, 2, "MMAS", MODEL, FAST)
    assert plan.total_cost_kj == pytest.approx(
        sum(d.tour.cost_kj for d in plan.drones), rel=1e-15)
    assert plan.total_distance_m == pytest.approx(
        sum(d.tour.total_distance_m for d in plan.drones), rel=1e-15)


def test_plan_fleet_with_the_station_on_a_waypoint():
    m = FarmMap(Point2D(0, 0), Point2D(60, 60), (), (Point2D(20, 20),), 0.0, 20.0)
    w = generate_waypoints(m)
    plan = plan_fleet(m, w, 1, "MMAS", MODEL, AcoParams(n_iterations=5))
    assert plan.valid
    assert set(plan.drones[0].waypoint_ids) == set(w.valid_indices())
