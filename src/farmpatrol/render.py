"""SVG rendering of a map and a FleetPlan, plus flight-path export at the
altitude each drone flies.

Output is deterministic: fixed styling tables, fixed float formatting and no
timestamps, so identical inputs give byte-identical documents. One SVG unit
is one metre; the y axis is flipped so north points up.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import Tour, path_metrics
from .fleet import FleetPlan
from .geometry import Circle, Rect
from .routegraph import RouteGraph
from .world import FarmMap, WaypointSet

MARGIN_M = 12.0
TOUR_COLORS = ("#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
FIELD_FILL = "#f6f4ec"
OBSTACLE_FILL = "#6b93b8"
OBSTACLE_STROKE = "#3d6285"
WAYPOINT_FILL = "#444444"
WAYPOINT_INVALID_FILL = "#bbbbbb"
STATION_FILL = "#e6a817"
STATION_STROKE = "#8a6410"


def _fmt(v: float) -> str:
    s = f"{v:.3f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _star(cx: float, cy: float, r: float) -> str:
    pts = []
    for k in range(10):
        rad = math.radians(-90 + k * 36)
        rr = r if k % 2 == 0 else r * 0.45
        pts.append(f"{_fmt(cx + rr * math.cos(rad))},{_fmt(cy + rr * math.sin(rad))}")
    return " ".join(pts)


def render_svg(farm: FarmMap, waypoints: WaypointSet | None = None,
               plan: FleetPlan | None = None) -> str:
    """Draw the farm, optionally its waypoint grid and a plan's tours.

    Each drone's tour gets its own colour, direction arrows and a label
    with the drone's altitude.
    """
    drones = plan.drones if plan is not None else ()

    xs = [farm.perimeter_min.x, farm.perimeter_max.x] + [s.x for s in farm.stations]
    ys = [farm.perimeter_min.y, farm.perimeter_max.y] + [s.y for s in farm.stations]
    for d in drones:
        xs.extend(d.graph.xy[:, 0].tolist())
        ys.extend(d.graph.xy[:, 1].tolist())
    x0, y1 = min(xs) - MARGIN_M, max(ys) + MARGIN_M
    width = max(xs) - min(xs) + 2 * MARGIN_M
    height = max(ys) - min(ys) + 2 * MARGIN_M

    def tx(x: float) -> str:
        return _fmt(x - x0)

    def ty(y: float) -> str:
        return _fmt(y1 - y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">',
        "<defs>",
    ]
    for i in range(len(drones)):
        color = TOUR_COLORS[i % len(TOUR_COLORS)]
        parts.append(
            f'<marker id="arrow{i}" viewBox="0 0 6 6" refX="5" refY="3" '
            f'markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
            f'<path d="M 0 0 L 6 3 L 0 6 z" fill="{color}"/></marker>')
    parts.append("</defs>")

    parts.append(
        f'<rect class="perimeter" x="{tx(farm.perimeter_min.x)}" '
        f'y="{ty(farm.perimeter_max.y)}" width="{_fmt(farm.width)}" '
        f'height="{_fmt(farm.height)}" fill="{FIELD_FILL}" stroke="#6b6249" stroke-width="1.5"/>')

    for obs in farm.obstacles:
        if isinstance(obs, Circle):
            parts.append(
                f'<circle class="obstacle" cx="{tx(obs.center.x)}" cy="{ty(obs.center.y)}" '
                f'r="{_fmt(obs.radius)}" fill="{OBSTACLE_FILL}" '
                f'stroke="{OBSTACLE_STROKE}" stroke-width="1"/>')
        elif isinstance(obs, Rect):
            parts.append(
                f'<rect class="obstacle" x="{tx(obs.min_corner.x)}" '
                f'y="{ty(obs.max_corner.y)}" '
                f'width="{_fmt(obs.max_corner.x - obs.min_corner.x)}" '
                f'height="{_fmt(obs.max_corner.y - obs.min_corner.y)}" '
                f'fill="{OBSTACLE_FILL}" stroke="{OBSTACLE_STROKE}" stroke-width="1"/>')

    if waypoints is not None:
        for p, ok in zip(waypoints.points, waypoints.valid):
            cls = "waypoint" if ok else "waypoint-invalid"
            fill = WAYPOINT_FILL if ok else WAYPOINT_INVALID_FILL
            parts.append(f'<circle class="{cls}" cx="{tx(p.x)}" cy="{ty(p.y)}" '
                         f'r="2.2" fill="{fill}"/>')

    for i, d in enumerate(drones):
        if len(d.tour.nodes) < 2:
            continue
        g = d.graph
        color = TOUR_COLORS[i % len(TOUR_COLORS)]
        coords = " ".join(f"{tx(g.xy[n, 0])},{ty(g.xy[n, 1])}" for n in d.tour.nodes)
        parts.append(
            f'<polyline class="tour" points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8" stroke-opacity="0.85" marker-mid="url(#arrow{i})" '
            f'marker-end="url(#arrow{i})"/>')
        label = f"drone {i} ({_fmt(d.altitude_m)} m)"
        hx, hy = g.xy[g.home, 0], g.xy[g.home, 1]
        parts.append(
            f'<text class="tour-label" x="{tx(hx + 4)}" y="{ty(hy - 6 - 10 * i)}" '
            f'font-family="monospace" font-size="9" fill="{color}">{label}</text>')

    for st in farm.stations:
        parts.append(f'<polygon class="station" points="{_star(float(st.x - x0), float(y1 - st.y), 6.0)}" '
                     f'fill="{STATION_FILL}" stroke="{STATION_STROKE}" stroke-width="1"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_path(tour: Tour, g: RouteGraph, altitude_m: float) -> dict:
    """Flight-order waypoint list with cost metadata, ready for json.dumps.

    The coordinates alone reproduce the stored cost (to float precision), so
    consumers can verify the file without the original graph.
    """
    for n in tour.nodes:
        if not 0 <= n < g.n_nodes:
            raise ValueError(f"tour node {n} is not in the graph")
    return {
        "schema": 1,
        "cost_kj": tour.cost_kj,
        "distance_m": tour.total_distance_m,
        "turn_deg": tour.total_turn_deg,
        "is_valid": tour.is_valid,
        "waypoints": [
            {"x": float(g.xy[n, 0]), "y": float(g.xy[n, 1]), "altitude_m": altitude_m}
            for n in tour.nodes
        ],
    }


def verify_export(doc: dict, lambda_kj_per_m: float, gamma_kj_per_deg: float) -> float:
    """Recompute the cost of an exported path from its coordinates."""
    pts = [(w["x"], w["y"]) for w in doc["waypoints"]]
    dist, turn = path_metrics(np.array(pts))
    return lambda_kj_per_m * dist + gamma_kj_per_deg * turn
