"""farmpatrol: energy-aware coverage path planning for patrol UAVs.

A farm is a rectangular perimeter with circular and rectangular no-fly
obstacles and one or two charging stations. The library lays a waypoint grid
over the field, prunes flight edges that pass too close to an obstacle, and
plans closed patrol tours that keep both distance flown and degrees turned
cheap under a linear energy model. Solvers: a back-and-forth sweep baseline
and two ant-colony variants (AS, MMAS). A benchmark harness compares them
over seeded trials, and plans can be exported as JSON paths or SVG drawings.
"""

from .aco import AcoParams, SolverRun, nearest_neighbour_cost, solve
from .baseline import plan_back_and_forth
from .energy import EnergyModel, Tour, heuristic, path_metrics, tour_cost
from .fleet import (
    SOLVERS,
    DronePlan,
    FleetPlan,
    PlanningError,
    partition,
    plan_fleet,
)
from .geometry import Circle, Point2D, Rect, min_clearance, turn_angle_deg
from .harness import (
    BenchConfig,
    BenchSummary,
    CellSummary,
    TrialReport,
    run_benchmark,
    summarize,
)
from .render import export_path, render_svg, verify_export
from .routegraph import DisconnectedGraphError, RouteGraph, build_graph, shortest_detour
from .world import (
    FarmMap,
    MapSchemaError,
    WaypointSet,
    generate_waypoints,
    load_map,
    load_map_file,
    reference_farm,
)

__version__ = "0.1.0"

__all__ = [
    "AcoParams",
    "BenchConfig",
    "BenchSummary",
    "CellSummary",
    "Circle",
    "DisconnectedGraphError",
    "DronePlan",
    "EnergyModel",
    "FarmMap",
    "FleetPlan",
    "MapSchemaError",
    "PlanningError",
    "Point2D",
    "Rect",
    "RouteGraph",
    "SOLVERS",
    "SolverRun",
    "Tour",
    "TrialReport",
    "WaypointSet",
    "build_graph",
    "export_path",
    "generate_waypoints",
    "heuristic",
    "load_map",
    "load_map_file",
    "min_clearance",
    "nearest_neighbour_cost",
    "partition",
    "path_metrics",
    "plan_back_and_forth",
    "plan_fleet",
    "reference_farm",
    "render_svg",
    "run_benchmark",
    "shortest_detour",
    "solve",
    "summarize",
    "tour_cost",
    "turn_angle_deg",
    "verify_export",
]
