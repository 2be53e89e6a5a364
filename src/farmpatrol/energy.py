"""Turn-aware energy model.

A tour s over graph nodes costs

    cost(s) = lambda * d_s + gamma * theta_s        [kJ]

where d_s is total path length in metres and theta_s the summed heading
change in degrees over interior vertices. The defaults (0.1164 kJ/m,
0.0173 kJ/deg) describe a mid-size quadcopter cruising at survey speed; both
knobs are exposed so other airframes can be modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .routegraph import RouteGraph

DEFAULT_LAMBDA_KJ_PER_M = 0.1164
DEFAULT_GAMMA_KJ_PER_DEG = 0.0173


@dataclass(frozen=True, slots=True)
class EnergyModel:
    lambda_kj_per_m: float = DEFAULT_LAMBDA_KJ_PER_M
    gamma_kj_per_deg: float = DEFAULT_GAMMA_KJ_PER_DEG

    def __post_init__(self):
        for name in ("lambda_kj_per_m", "gamma_kj_per_deg"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a finite non-negative number, got {v}")


@dataclass(frozen=True, slots=True)
class Tour:
    """A node walk with its energy bookkeeping.

    is_valid reports the coverage contract: starts and ends at home and visits
    every waypoint of the graph (exactly once for solver tours, at least once
    when revisits were permitted at costing time).
    """

    nodes: tuple[int, ...]
    total_distance_m: float
    total_turn_deg: float
    cost_kj: float
    is_valid: bool


def path_metrics(xy: np.ndarray) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Total length (m) and summed interior turn (deg) of a polyline.

    xy is an (k, 2) array of vertices, and the result two floats; or an
    (m, k, 2) stack of equal-length polylines, and the result two (m,)
    arrays. A polyline goes through the stack form as a one-row stack, so
    row r of a stack gives what xy[r] alone does, bit for bit. Consecutive
    duplicates are not allowed (the turn angle would be undefined there).
    """
    xy = np.asarray(xy, dtype=float)
    d = np.diff(xy if xy.ndim == 3 else xy[None], axis=1)
    legs = np.hypot(d[..., 0], d[..., 1])
    if np.any(legs == 0.0):
        raise ValueError("polyline repeats a vertex; turn angle undefined")
    u, v = d[:, :-1], d[:, 1:]
    dist = legs.sum(axis=1)
    turn = turns(u[..., 0], u[..., 1], v[..., 0], v[..., 1]).sum(axis=1)
    if xy.ndim == 3:
        return dist, turn
    return float(dist[0]), float(turn[0])


def turns(ux, uy, vx, vy) -> np.ndarray:
    """Heading change in degrees, within [0, 180], from leg (ux, uy) onto
    leg (vx, vy), element-wise over arrays of leg components that broadcast.

    The legs need not be unit vectors. A turn onto or off a zero-length leg
    is meaningless: callers never weigh one.
    """
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return np.degrees(np.arctan2(np.abs(cross), dot))


def tour_cost(g: RouteGraph, model: EnergyModel, nodes, allow_revisits: bool = False) -> Tour:
    """Cost a node walk and report its validity.

    Every consecutive pair must be a graph edge (pruned or missing edges are
    rejected with the offending pair), and so is a cost that overflows, an
    energy scale too large for the map. No turn is charged for leaving home
    on the first leg or arriving on the last, which keeps reversal symmetry.
    """
    nodes = tuple(int(v) for v in nodes)
    if len(nodes) < 2:
        raise ValueError("a tour needs at least two nodes")
    for a, b in zip(nodes, nodes[1:]):
        if not (0 <= a < g.n_nodes and 0 <= b < g.n_nodes):
            raise ValueError(f"tour node out of range: ({a}, {b})")
        if not g.adj[a, b]:
            raise ValueError(f"tour uses a missing or pruned edge ({a}, {b})")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in cost
        dist, turn = path_metrics(g.xy[list(nodes)])
        cost = model.lambda_kj_per_m * dist + model.gamma_kj_per_deg * turn
    if not math.isfinite(cost):
        raise ValueError(f"energy scale out of range for this map: the tour costs {cost!r} kJ "
                         f"(lambda_kj_per_m {model.lambda_kj_per_m!r}, "
                         f"gamma_kj_per_deg {model.gamma_kj_per_deg!r})")

    closed = nodes[0] == g.home and nodes[-1] == g.home
    interior = nodes[1:-1]
    if allow_revisits:
        valid = closed and set(interior).issuperset(range(g.n_waypoints))
    else:
        valid = closed and sorted(interior) == list(range(g.n_waypoints))
    return Tour(nodes, dist, turn, cost, valid)


def heuristic(model: EnergyModel, distance_m: float, turn_deg: float = 0.0) -> float:
    """Attractiveness of a candidate leg: 1 / (lambda * d + gamma * turn).

    turn_deg is the heading change implied by approach history, 0 when there
    is none (first hop out of home).
    """
    if not distance_m > 0:
        raise ValueError(f"leg length must be positive, got {distance_m}")
    if not 0.0 <= turn_deg <= 180.0:
        raise ValueError(f"turn angle out of range [0, 180]: {turn_deg}")
    denom = model.lambda_kj_per_m * distance_m + model.gamma_kj_per_deg * turn_deg
    if denom <= 0.0:
        raise ValueError("heuristic undefined: zero-cost leg under this model")
    return 1.0 / denom
