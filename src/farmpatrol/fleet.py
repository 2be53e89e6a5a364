"""Single- and dual-drone planning on one farm.

For two drones the field is split by a straight cut perpendicular to its long
axis into two contiguous column groups whose sizes differ by at most one
column; each drone covers its half from its own station. When the two planned
tracks cross in 2D the drones fly at separated altitudes (20 m and 30 m),
otherwise both stay at 20 m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .aco import AcoParams, SolverRun, solve
from .baseline import plan_back_and_forth
from .energy import EnergyModel, Tour
from .geometry import segments_intersect
from .routegraph import RouteGraph, build_graph
from .world import FarmMap, WaypointSet

SOLVERS = ("back-and-forth", "AS", "MMAS")
BASE_ALTITUDE_M = 20.0
SEPARATED_ALTITUDE_M = 30.0


class PlanningError(ValueError):
    """Planning was impossible with the requested configuration."""


@dataclass(frozen=True, slots=True)
class DronePlan:
    station: int                  # index into farm.stations
    waypoint_ids: tuple[int, ...]  # grid indices this drone covers
    altitude_m: float
    tour: Tour
    graph: RouteGraph
    run: SolverRun | None         # colony bookkeeping; None for the baseline


@dataclass(frozen=True, slots=True)
class FleetPlan:
    solver: str
    drones: tuple[DronePlan, ...]

    @property
    def total_cost_kj(self) -> float:
        return sum(d.tour.cost_kj for d in self.drones)

    @property
    def total_distance_m(self) -> float:
        return sum(d.tour.total_distance_m for d in self.drones)

    @property
    def total_turn_deg(self) -> float:
        return sum(d.tour.total_turn_deg for d in self.drones)

    @property
    def valid(self) -> bool:
        return all(d.tour.is_valid for d in self.drones)


def partition(farm: FarmMap, waypoints: WaypointSet, n_drones: int) -> list[list[int]]:
    """Split the valid waypoints into one contiguous group per drone.

    Returns grid-index lists, entry k belonging to the drone at station k.
    The cut runs perpendicular to the longer perimeter axis; group sizes
    differ by at most one waypoint column. An odd middle column joins the half
    where the station nearest to it (along that axis) sits.
    """
    if n_drones not in (1, 2):
        raise PlanningError(f"n_drones must be 1 or 2, got {n_drones}")
    if n_drones > len(farm.stations):
        need = "1 drone needs 1 station" if n_drones == 1 else "2 drones need 2 stations"
        raise PlanningError(f"{need}, map has {len(farm.stations)}")
    valid = list(waypoints.valid_indices())
    if n_drones == 1:
        return [valid]

    along_x = farm.width >= farm.height
    axis = (lambda p: p.x) if along_x else (lambda p: p.y)
    col_of = (lambda grid: waypoints.row_col(grid)[1]) if along_x \
        else (lambda grid: waypoints.row_col(grid)[0])

    cols = sorted({col_of(g) for g in valid})
    mid = len(cols) // 2
    if len(cols) % 2:
        # station nearest to the middle column claims it for its side
        pos = axis(waypoints.points[next(g for g in valid if col_of(g) == cols[mid])])
        _, winner_pos, _ = min((abs(axis(farm.stations[k]) - pos),
                                axis(farm.stations[k]), k) for k in range(2))
        if winner_pos <= pos:
            mid += 1
    lower_cols = set(cols[:mid])
    lower = [g for g in valid if col_of(g) in lower_cols]
    upper = [g for g in valid if col_of(g) not in lower_cols]
    if not lower or not upper:
        raise PlanningError("field is too narrow to split between two drones")

    # the lower-position station serves the lower half
    s0, s1 = axis(farm.stations[0]), axis(farm.stations[1])
    if (s0, 0) <= (s1, 1):
        return [lower, upper]
    return [upper, lower]


def _tours_cross(a: Tour, ga: RouteGraph, b: Tour, gb: RouteGraph) -> bool:
    segs_a = [(ga.point(u), ga.point(v)) for u, v in zip(a.nodes, a.nodes[1:])]
    segs_b = [(gb.point(u), gb.point(v)) for u, v in zip(b.nodes, b.nodes[1:])]
    return any(segments_intersect(p0, p1, q0, q1)
               for p0, p1 in segs_a for q0, q1 in segs_b)


def plan_fleet(farm: FarmMap, waypoints: WaypointSet, n_drones: int, solver: str,
               model: EnergyModel | None = None,
               params: AcoParams | None = None) -> FleetPlan:
    """Plan coverage with 1 or 2 drones using the named solver.

    solver is one of "back-and-forth", "AS" or "MMAS"; it overrides
    params.variant, and the baseline ignores params. params.seed seeds the
    colony; drone k of an n-drone plan derives seed * n_drones + k so the two
    colonies explore independently but reproducibly.
    """
    if solver not in SOLVERS:
        raise PlanningError(f"unknown solver {solver!r}, expected one of {SOLVERS}")
    model = model or EnergyModel()
    params = params or AcoParams()
    subsets = partition(farm, waypoints, n_drones)

    drones = []
    for k, subset in enumerate(subsets):
        if not subset:
            raise PlanningError(f"drone {k} received no waypoints")
        g = build_graph(farm, waypoints, k, include=subset)
        if solver == "back-and-forth":
            tour = plan_back_and_forth(g, model, waypoints)
            run = None
        else:
            drone_params = replace(params, variant=solver, seed=params.seed * n_drones + k)
            run = solve(g, model, drone_params)
            tour = run.best_tour
        drones.append(DronePlan(k, tuple(subset), BASE_ALTITUDE_M, tour, g, run))

    if n_drones == 2 and _tours_cross(drones[0].tour, drones[0].graph,
                                      drones[1].tour, drones[1].graph):
        drones[1] = replace(drones[1], altitude_m=SEPARATED_ALTITUDE_M)
    return FleetPlan(solver, tuple(drones))
