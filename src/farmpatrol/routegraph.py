"""Route graph over valid waypoints plus a home station.

Nodes are integers: waypoints first (in ascending grid index), the home
station last. An edge exists when the straight segment between the two nodes
keeps at least FarmMap.clear_m distance to every obstacle (a leg that touches
or crosses one is never clear); pruned pairs can still be reached through
detours, found with :func:`shortest_detour`.

The build is a broad phase and a narrow phase. A numpy screen
(:func:`geometry.near_boxes`) compares the box of each leg with the box of
each obstacle, widened by clear_m and a rounding margin; a leg whose box
stays that far from every obstacle is an edge at once. Every other leg runs
the exact scalar :func:`geometry.min_clearance` against the obstacles its box
comes near, in obstacle order, up to the first that blocks it. The gap
between boxes is a lower bound on the distance, and the margin covers the
rounding of both tests, so the screen only skips tests that would pass: the
graph is the one the exact test alone gives.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable

import numpy as np

from .geometry import Point2D, Segment2D, min_clearance, near_boxes, obstacle_boxes
from .world import FarmMap, WaypointSet


class DisconnectedGraphError(ValueError):
    """Some waypoint cannot be reached from home along clear edges."""

    def __init__(self, message: str, unreachable: tuple[int, ...]):
        super().__init__(message)
        self.unreachable = unreachable


@dataclass(frozen=True, eq=False, slots=True)
class RouteGraph:
    """One drone's flight graph. No edge joins two nodes at one point, compared
    by value (-0.0 equals 0.0): the constructor raises ValueError naming them."""

    xy: np.ndarray                     # (n, 2) node coordinates, metres
    adj: np.ndarray                    # (n, n) bool, symmetric, False diagonal
    waypoint_grid_ids: tuple[int, ...]  # node i < home -> index into the WaypointSet

    def __post_init__(self):
        # sorted by value, the nodes at one point lie side by side
        order = np.lexsort(self.xy.T[::-1])
        same = (self.xy[order[1:]] == self.xy[order[:-1]]).all(axis=1)
        nodes = np.sort(order[np.append(same, False) | np.append(False, same)])  # shared points
        at = self.xy[nodes]
        hit = np.argwhere(self.adj[np.ix_(nodes, nodes)] & (at[:, None] == at).all(axis=2))
        if hit.size:
            a, b = nodes[hit[0]].tolist()
            raise ValueError(f"nodes {a} and {b} at {self.xy[a].tolist()} share an edge")

    @property
    def n_nodes(self) -> int:
        return self.xy.shape[0]

    @property
    def n_waypoints(self) -> int:
        return len(self.waypoint_grid_ids)

    @property
    def home(self) -> int:
        return self.n_waypoints

    def point(self, node: int) -> Point2D:
        return Point2D(float(self.xy[node, 0]), float(self.xy[node, 1]))

    def edges(self) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(np.triu(self.adj, 1))
        return list(zip(ii.tolist(), jj.tolist()))


def pair_distances(xy: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean lengths between all rows of an (n, 2) array."""
    diff = xy[:, None, :] - xy[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def build_graph(farm: FarmMap, waypoints: WaypointSet, station: int,
                include: Iterable[int] | None = None) -> RouteGraph:
    """Build the flight graph for one drone.

    station indexes farm.stations. include optionally restricts the graph to a
    subset of valid waypoint grid indices (used when the field is split across
    drones); by default every valid waypoint is a node. Raises
    DisconnectedGraphError when any included waypoint is unreachable from home;
    its message names the first few, its unreachable attribute all of them.

    Node i's legs to the later nodes are screened together against the
    obstacle boxes (see the module docstring); min_clearance runs only for a
    leg and an obstacle the screen keeps, so its temporaries grow with the
    nodes times the obstacles, never with the pairs times the obstacles.
    """
    if not 0 <= station < len(farm.stations):
        raise ValueError(f"station index {station} out of range "
                         f"(map has {len(farm.stations)} stations)")
    valid = set(waypoints.valid_indices())
    if include is None:
        grid_ids = sorted(valid)
    else:
        grid_ids = sorted(set(include))
        bad = [g for g in grid_ids if g not in valid]
        if bad:
            raise ValueError(f"include lists non-valid waypoint indices: {bad}")

    pts = [waypoints.points[g] for g in grid_ids] + [farm.stations[station]]
    n = len(pts)
    xy = np.array([[p.x, p.y] for p in pts], dtype=float)

    adj = np.zeros((n, n), dtype=bool)
    need = farm.clear_m
    boxes = obstacle_boxes(farm.obstacles)
    for i in range(n - 1):
        rest = xy[i + 1:]
        clear = ~(rest == xy[i]).all(axis=1)  # coincident nodes cannot share a flyable edge
        near = near_boxes(np.minimum(xy[i], rest), np.maximum(xy[i], rest), boxes, need)
        jj, kk = np.nonzero(near & clear[:, None])  # by leg, then in obstacle order
        for j, hits in groupby(zip(jj.tolist(), kk.tolist()), key=itemgetter(0)):
            seg = Segment2D(pts[i], pts[i + 1 + j])
            clear[j] = all(min_clearance(seg, farm.obstacles[k]) >= need for _, k in hits)
        adj[i, i + 1:] = adj[i + 1:, i] = clear

    home = n - 1
    seen = np.zeros(n, dtype=bool)
    seen[home] = True
    frontier = [home]
    while frontier:
        nxt = np.nonzero(adj[frontier].any(axis=0) & ~seen)[0]
        seen[nxt] = True
        frontier = nxt.tolist()
    if not seen.all():
        missing = [k for k in range(n) if not seen[k]]
        labels = ", ".join(
            f"waypoint {grid_ids[k]} at ({xy[k, 0]:g}, {xy[k, 1]:g})" for k in missing[:5])
        if len(missing) > 5:  # one line, whatever the grid
            labels += f" and {len(missing) - 5} more"
        raise DisconnectedGraphError(
            f"graph is disconnected: unreachable from home: {labels}",
            tuple(grid_ids[k] for k in missing))

    xy.setflags(write=False)
    adj.setflags(write=False)
    return RouteGraph(xy, adj, tuple(grid_ids))


def shortest_detour(g: RouteGraph, a: int, b: int) -> list[int]:
    """Minimum-length node path from a to b along graph edges, inclusive.

    Deterministic: distance ties resolve toward lower node indices.
    """
    n = g.n_nodes
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"node out of range: {a}, {b}")
    if a == b:
        return [a]
    best = np.full(n, np.inf)
    best[a] = 0.0
    prev = np.full(n, -1, dtype=int)
    heap = [(0.0, a)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        if u == b:
            break
        done[u] = True
        nbrs = np.nonzero(g.adj[u])[0]
        diff = g.xy[u] - g.xy[nbrs]  # the legs, as pair_distances computes them
        for v, leg in zip(nbrs, np.hypot(diff[:, 0], diff[:, 1]).tolist()):
            nd = d + leg
            if nd < best[v]:
                best[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, int(v)))
    if not np.isfinite(best[b]):
        raise DisconnectedGraphError(f"no path between nodes {a} and {b}", ())
    path = [b]
    while path[-1] != a:
        path.append(int(prev[path[-1]]))
    path.reverse()
    return path
