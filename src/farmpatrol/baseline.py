"""Back-and-forth reference planner.

Sweeps the waypoint grid line by line in the grid's own order, alternating
direction each line like a tractor. The lines are the grid rows when the grid
is at least as wide as it is tall and its columns otherwise, taken in index
order from whichever extreme line lies nearer to home; the first line is
entered at the end nearer home. Pairs without a direct clear edge are stitched
with the shortest detour through the graph, so the result may pass through
some waypoints more than once; it is costed with revisits allowed.
"""

from __future__ import annotations

import math

from .energy import EnergyModel, Tour, tour_cost
from .routegraph import RouteGraph, shortest_detour
from .world import WaypointSet


def _serpentine_targets(g: RouteGraph, waypoints: WaypointSet) -> list[int]:
    # the grid is row-major, so its corners give its extents; graph nodes
    # follow the grid index, so each line's nodes already run in order along it
    first, last = waypoints.points[0], waypoints.points[-1]
    across = 1 if last.x - first.x >= last.y - first.y else 0  # y when lines run along x
    by_line: dict[int, list[int]] = {}
    for node, grid in enumerate(g.waypoint_grid_ids):
        by_line.setdefault(waypoints.row_col(grid)[1 - across], []).append(node)
    lines = [by_line[key] for key in sorted(by_line)]
    xy, home = g.xy, g.xy[g.home]
    # start on the extreme line nearer to home, at its end nearer to home
    if abs(xy[lines[-1][0], across] - home[across]) < abs(xy[lines[0][0], across] - home[across]):
        lines.reverse()
    forward = math.dist(home, xy[lines[0][0]]) <= math.dist(home, xy[lines[0][-1]])
    targets: list[int] = []
    for line in lines:
        targets.extend(line if forward else reversed(line))
        forward = not forward
    return targets


def plan_back_and_forth(g: RouteGraph, model: EnergyModel,
                        waypoints: WaypointSet) -> Tour:
    """Deterministic serpentine coverage tour from home back to home."""
    if g.n_waypoints == 0:
        raise ValueError("graph has no waypoints to cover")
    targets = _serpentine_targets(g, waypoints)
    walk = [g.home]
    for t in targets + [g.home]:
        if g.adj[walk[-1], t]:
            walk.append(t)
        else:
            walk.extend(shortest_detour(g, walk[-1], t)[1:])
    return tour_cost(g, model, walk, allow_revisits=True)
