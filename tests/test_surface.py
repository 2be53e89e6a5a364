"""The names perfbench/run.py wraps or reads.

perfbench is not part of this suite, so a rename or removal here would only
show when the benchmark runs; this test makes it show in the unit tests.
"""

import dataclasses

from farmpatrol import aco, baseline, fleet, routegraph
from farmpatrol.aco import SolverRun
from farmpatrol.fleet import DronePlan
from farmpatrol.world import WaypointSet


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

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"station", "waypoint_ids", "tour", "graph", "altitude_m", "run"} <= fields(DronePlan)
    assert "best_cost_history" in fields(SolverRun)
    assert "points" in fields(WaypointSet)
    assert callable(WaypointSet.valid_indices)
    assert isinstance(WaypointSet.n_valid, property)
