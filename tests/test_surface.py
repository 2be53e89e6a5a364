"""The package's public names, and the names perfbench/run.py wraps or reads.

A stale __all__ entry would only fail on `from farmpatrol import *`, and
perfbench is not part of this suite, so a rename or removal would only show
when the benchmark runs; these tests make both show in the unit tests.
"""

import dataclasses
import inspect

import farmpatrol
from farmpatrol import aco, baseline, fleet, routegraph
from farmpatrol.aco import AcoParams, SolverRun
from farmpatrol.energy import EnergyModel, path_metrics
from farmpatrol.fleet import DronePlan
from farmpatrol.world import WaypointSet, generate_waypoints, reference_farm


def test_every_public_name_resolves_once():
    names = farmpatrol.__all__
    assert sorted(set(names)) == sorted(names), "a name repeats in __all__"
    assert [name for name in names if not hasattr(farmpatrol, name)] == []


def test_names_the_benchmark_relies_on():
    wrapped = {
        aco: ("path_metrics", "nearest_neighbour_cost"),
        routegraph: ("min_clearance",),
        baseline: ("shortest_detour",),
        fleet: ("build_graph", "solve", "partition", "plan_back_and_forth",
                "segments_intersect"),
    }
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # solve passes its space by position, and perfbench wraps the function
    params = inspect.signature(aco.nearest_neighbour_cost).parameters
    assert list(params) == ["g", "model", "space"]

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"station", "waypoint_ids", "tour", "graph", "altitude_m", "run"} <= fields(DronePlan)
    assert "best_cost_history" in fields(SolverRun)
    assert "points" in fields(WaypointSet)
    assert callable(WaypointSet.valid_indices)
    assert isinstance(WaypointSet.n_valid, property)


def test_the_colony_costs_every_walk_through_the_name_perfbench_times(monkeypatch):
    # perfbench times energy.path_metrics by wrapping aco.path_metrics, so
    # every iteration's batch of closed tours must be costed through it
    farm = reference_farm()
    g = routegraph.build_graph(farm, generate_waypoints(farm), 0)
    params = AcoParams(variant="MMAS", n_iterations=12, seed=7)
    plain = aco.solve(g, EnergyModel(), params)
    shapes = []

    def counted(xy):
        shapes.append(xy.shape)
        return path_metrics(xy)

    monkeypatch.setattr(aco, "path_metrics", counted)
    wrapped = aco.solve(g, EnergyModel(), params)
    assert len(shapes) >= params.n_iterations
    assert sum(len(shape) == 3 for shape in shapes) == params.n_iterations  # one batch each
    assert wrapped == plain
