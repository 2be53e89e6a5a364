import math
import re

import numpy as np
import pytest

from farmpatrol.fleet import plan_fleet
from farmpatrol.geometry import Circle, Point2D, Rect, Segment2D, min_clearance
from farmpatrol.routegraph import (DisconnectedGraphError, RouteGraph, build_graph,
                                  pair_distances, shortest_detour)
from farmpatrol.world import FarmMap, generate_waypoints


def make_map(width=100, height=100, obstacles=(), stations=((90, 90),),
             clearance=10.0, spacing=38.0):
    return FarmMap(Point2D(0, 0), Point2D(width, height), tuple(obstacles),
                   tuple(Point2D(*s) for s in stations), clearance, spacing)


def all_simple_path_lengths(g, a, b):
    """Oracle: every simple path a..b with its total length, by DFS."""
    out = []
    dist = pair_distances(g.xy)

    def walk(node, seen, length):
        if node == b:
            out.append(length)
            return
        for v in range(g.n_nodes):
            if g.adj[node, v] and v not in seen:
                walk(v, seen | {v}, length + dist[node, v])

    walk(a, {a}, 0.0)
    return out


def test_obstacle_free_grid_is_complete():
    # 3x3 grid plus home: complete graph on 10 nodes
    m = make_map(stations=((-10, 0),))
    g = build_graph(m, generate_waypoints(m), 0)
    assert g.n_nodes == 10
    assert g.n_waypoints == 9
    assert len(g.edges()) == 45
    assert g.home == 9


def test_central_obstacle_prunes_crossing_edges():
    m = make_map(obstacles=(Circle(Point2D(38, 38), 5.0),))
    w = generate_waypoints(m)
    g = build_graph(m, w, 0)
    # the waypoint on the obstacle is not a node
    assert g.n_waypoints == 8
    assert 4 not in g.waypoint_grid_ids

    def node_of(x, y):
        for i in range(g.n_waypoints):
            if g.point(i) == Point2D(x, y):
                return i
        raise AssertionError

    # edges that would cross the blocked centre are gone
    assert not g.adj[node_of(0, 0), node_of(76, 76)]
    assert not g.adj[node_of(0, 76), node_of(76, 0)]
    assert not g.adj[node_of(0, 38), node_of(76, 38)]
    assert not g.adj[node_of(38, 0), node_of(38, 76)]
    # edges passing well clear remain
    assert g.adj[node_of(0, 0), node_of(38, 0)]
    assert g.adj[node_of(0, 0), node_of(0, 76)]


def test_zero_clearance_prunes_legs_that_touch_or_cross_obstacles():
    obstacles = (Circle(Point2D(40, 20), 12.0), Rect(Point2D(0, 30), Point2D(10, 40)))
    m = make_map(80, 40, obstacles, stations=((80, 0),), clearance=0.0, spacing=20.0)
    w = generate_waypoints(m)
    g = build_graph(m, w, 0)
    node_of = {g.point(k): k for k in range(g.n_nodes)}

    def edge(a, b):
        return g.adj[node_of[Point2D(*a)], node_of[Point2D(*b)]]

    assert not edge((20, 20), (60, 20))  # through the circle
    assert not edge((0, 20), (20, 40))   # through the rect's corner (10, 30)
    assert edge((20, 20), (20, 40))      # 8 m from the circle, 10 m from the rect
    plan = plan_fleet(m, w, 1, "back-and-forth")
    assert plan.valid
    (drone,) = plan.drones
    nodes = drone.tour.nodes
    for a, b in zip(nodes, nodes[1:]):
        leg = Segment2D(g.point(a), g.point(b))
        assert all(min_clearance(leg, obs) > 0 for obs in obstacles)


def test_enclosed_waypoint_raises_disconnected():
    cage = tuple(Circle(Point2D(x, y), 6.0)
                 for x, y in ((19, 38), (57, 38), (38, 19), (38, 57)))
    m = make_map(obstacles=cage)
    w = generate_waypoints(m)
    assert w.n_valid == 9  # the caged waypoint itself is still valid
    with pytest.raises(DisconnectedGraphError) as err:
        build_graph(m, w, 0)
    assert err.value.unreachable == (4,)
    assert "waypoint 4" in str(err.value)


def detour_map():
    # a wall between the two left columns forces a detour over the top
    wall = Rect(Point2D(18, -10), Point2D(22, 30))
    return make_map(width=80, height=40, obstacles=(wall,),
                    stations=((80, 20),), spacing=40.0)


def test_shortest_detour_matches_enumeration():
    m = detour_map()
    g = build_graph(m, generate_waypoints(m), 0)
    a, b = 0, 1  # (0,0) and (40,0), direct edge pruned by the wall
    assert not g.adj[a, b]
    path = shortest_detour(g, a, b)
    assert path[0] == a and path[-1] == b
    dist = pair_distances(g.xy)
    length = sum(dist[u, v] for u, v in zip(path, path[1:]))
    lengths = all_simple_path_lengths(g, a, b)
    assert length == pytest.approx(min(lengths), rel=1e-12)
    # every hop must be an actual edge
    assert all(g.adj[u, v] for u, v in zip(path, path[1:]))


def test_shortest_detour_trivial_cases():
    m = make_map(stations=((-10, 0),))
    g = build_graph(m, generate_waypoints(m), 0)
    assert shortest_detour(g, 3, 3) == [3]
    # adjacent nodes: the direct edge is the shortest path
    assert shortest_detour(g, 0, 1) == [0, 1]


def test_include_restricts_nodes():
    m = make_map(stations=((-10, 0),))
    w = generate_waypoints(m)
    g = build_graph(m, w, 0, include=[0, 1, 2])
    assert g.n_waypoints == 3
    assert g.waypoint_grid_ids == (0, 1, 2)
    with pytest.raises(ValueError, match="non-valid"):
        build_graph(m, w, 0, include=[0, 99])


def test_station_index_validated():
    m = make_map()
    with pytest.raises(ValueError, match="station index"):
        build_graph(m, generate_waypoints(m), 2)


def test_coincident_station_gets_no_zero_edge():
    # station directly on top of waypoint (0, 0)
    m = make_map(stations=((0, 0),))
    g = build_graph(m, generate_waypoints(m), 0)
    assert not g.adj[0, g.home]
    # still connected through the other waypoints
    assert len(shortest_detour(g, g.home, 0)) == 3


@pytest.mark.parametrize("xy,pair,message", [
    ([(0, 0), (5, 5), (0, 0)], (0, 2), "nodes 0 and 2 at [0.0, 0.0] share an edge"),
    # equal by value, not by bytes
    ([(-0.0, 3), (5, 5), (0.0, 3)], (2, 0), "nodes 0 and 2 at [-0.0, 3.0] share"),
    ([(4, 4), (4, -0.0), (5, 5), (4, 4), (4, 0.0)], (4, 1), "nodes 1 and 4 at [4.0, -0.0] share"),
])
def test_an_edge_between_coincident_nodes_is_rejected(xy, pair, message):
    xy = np.array(xy, dtype=float)
    n = len(xy)
    adj = pair_distances(xy) > 0.0  # an edge between every two distinct points
    RouteGraph(xy, adj, tuple(range(n - 1)))  # coincident nodes with no edge build
    a, b = pair
    adj[a, b] = adj[b, a] = True
    with pytest.raises(ValueError, match=re.escape(message)):
        RouteGraph(xy, adj, tuple(range(n - 1)))


def test_graph_arrays_are_immutable():
    m = make_map()
    g = build_graph(m, generate_waypoints(m), 0)
    with pytest.raises(ValueError):
        g.adj[0, 1] = False
    with pytest.raises(ValueError):
        g.xy[0, 0] = 5.0


def test_rebuild_is_deterministic():
    m = detour_map()
    w = generate_waypoints(m)
    g1 = build_graph(m, w, 0)
    g2 = build_graph(m, w, 0)
    assert np.array_equal(g1.adj, g2.adj)
    assert np.array_equal(g1.xy, g2.xy)
    assert g1.waypoint_grid_ids == g2.waypoint_grid_ids


def test_edge_lengths_are_euclidean():
    m = make_map(stations=((-10, 0),))
    g = build_graph(m, generate_waypoints(m), 0)
    dist = pair_distances(g.xy)
    for i, j in g.edges():
        pi, pj = g.point(i), g.point(j)
        assert dist[i, j] == pytest.approx(math.hypot(pj.x - pi.x, pj.y - pi.y), rel=1e-15)
