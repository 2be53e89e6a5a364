import math
import random

import numpy as np
import pytest

import oracles
from farmpatrol.energy import EnergyModel, Tour, heuristic, path_metrics, tour_cost
from farmpatrol.geometry import Point2D, turn_angle_deg
from farmpatrol.routegraph import build_graph
from farmpatrol.world import FarmMap, generate_waypoints

MODEL = EnergyModel()


def grid_graph(station=(-10, 0)):
    m = FarmMap(Point2D(0, 0), Point2D(100, 100), (), (Point2D(*station),), 10.0, 38.0)
    return build_graph(m, generate_waypoints(m), 0)


def test_default_constants():
    assert MODEL.lambda_kj_per_m == 0.1164
    assert MODEL.gamma_kj_per_deg == 0.0173


def test_model_rejects_negative():
    with pytest.raises(ValueError):
        EnergyModel(lambda_kj_per_m=-0.1)
    with pytest.raises(ValueError):
        EnergyModel(gamma_kj_per_deg=math.nan)


def test_l_path_cost():
    g = grid_graph()
    # (0,0) -> (38,0) -> (38,38): 76 m plus one 90 degree corner
    t = tour_cost(g, MODEL, (0, 1, 4))
    assert t.total_distance_m == pytest.approx(76.0, rel=1e-12)
    assert t.total_turn_deg == pytest.approx(90.0, rel=1e-12)
    assert t.cost_kj == pytest.approx(10.4034, abs=1e-9)
    assert not t.is_valid


def test_heuristic_values():
    assert heuristic(MODEL, 38.0) == pytest.approx(0.2260807, abs=1e-6)
    assert heuristic(MODEL, 38.0, 90.0) == pytest.approx(0.16722, abs=1e-5)


def test_heuristic_guards():
    with pytest.raises(ValueError):
        heuristic(MODEL, 0.0)
    with pytest.raises(ValueError):
        heuristic(MODEL, 10.0, 200.0)
    with pytest.raises(ValueError):
        heuristic(EnergyModel(0.0, 0.0173), 10.0, 0.0)


def test_tour_rejects_missing_edge():
    g = grid_graph()
    # self edge never exists
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        tour_cost(g, MODEL, (0, 2, 2))
    with pytest.raises(ValueError):
        tour_cost(g, MODEL, (0,))


def test_validity_strict():
    g = grid_graph()
    home = g.home
    order = [home, 0, 1, 2, 5, 4, 3, 6, 7, 8, home]
    t = tour_cost(g, MODEL, order)
    assert t.is_valid
    # missing one waypoint
    assert not tour_cost(g, MODEL, [home, 0, 1, 2, 5, 4, 3, 6, 7, home]).is_valid
    # duplicate visit fails the strict check
    assert not tour_cost(g, MODEL, [home, 0, 1, 0, 2, 5, 4, 3, 6, 7, 8, home]).is_valid
    # open path fails
    assert not tour_cost(g, MODEL, [home, 0, 1, 2, 5, 4, 3, 6, 7, 8]).is_valid


def test_validity_relaxed_allows_passthrough():
    g = grid_graph()
    home = g.home
    walk = [home, 0, 1, 0, 2, 5, 4, 3, 6, 7, 8, home]
    assert tour_cost(g, MODEL, walk, allow_revisits=True).is_valid
    # coverage still required
    assert not tour_cost(g, MODEL, [home, 0, 1, 0, home], allow_revisits=True).is_valid


def test_cost_matches_independent_polyline_oracle():
    g = grid_graph()
    rng = random.Random(5)
    for _ in range(200):
        length = rng.randint(2, 12)
        walk = [rng.randrange(g.n_nodes)]
        while len(walk) < length:
            nxt = rng.randrange(g.n_nodes)
            if nxt != walk[-1]:
                walk.append(nxt)
        t = tour_cost(g, MODEL, walk)
        pts = [(g.xy[k, 0], g.xy[k, 1]) for k in walk]
        want = oracles.polyline_cost(pts, MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg)
        assert t.cost_kj == pytest.approx(want, rel=1e-12)


def test_turn_sum_matches_per_corner_function():
    rng = random.Random(11)
    for _ in range(200):
        pts = []
        while len(pts) < 8:
            cand = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            if not pts or cand != pts[-1]:
                pts.append(cand)
        _, turn = path_metrics(np.array(pts))
        want = sum(turn_angle_deg(Point2D(*pts[k - 1]), Point2D(*pts[k]), Point2D(*pts[k + 1]))
                   for k in range(1, len(pts) - 1))
        assert turn == pytest.approx(want, rel=1e-12, abs=1e-12)


def random_polyline(rng, k):
    pts = []
    while len(pts) < k:
        cand = (rng.uniform(-200, 200), rng.uniform(-200, 200))
        if not pts or cand != pts[-1]:
            pts.append(cand)
    return np.array(pts)


def test_invariances_quick():
    rng = random.Random(99)
    for _ in range(200):
        xy = random_polyline(rng, rng.randint(3, 10))
        d, turn = path_metrics(xy)
        cost = MODEL.lambda_kj_per_m * d + MODEL.gamma_kj_per_deg * turn
        # reversal
        d2, t2 = path_metrics(xy[::-1])
        assert MODEL.lambda_kj_per_m * d2 + MODEL.gamma_kj_per_deg * t2 == pytest.approx(cost, rel=1e-9)
        # translation
        d3, t3 = path_metrics(xy + np.array([17.5, -42.25]))
        assert d3 == pytest.approx(d, rel=1e-9) and t3 == pytest.approx(turn, rel=1e-9, abs=1e-9)
        # rotation
        ang = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        d4, t4 = path_metrics(xy @ rot.T)
        assert d4 == pytest.approx(d, rel=1e-9) and t4 == pytest.approx(turn, rel=1e-9, abs=1e-9)
        # turn budget: at most a reversal per interior vertex
        assert 0.0 <= turn <= 180.0 * (len(xy) - 2) + 1e-9


def test_a_stack_costs_each_row_bit_for_bit_as_the_single_form():
    rng = random.Random(5)
    for k in (2, 3, 9):
        stack = np.array([random_polyline(rng, k) for _ in range(12)])
        dist, turn = path_metrics(stack)
        singles = [path_metrics(row) for row in stack]
        assert all(type(d) is float and type(t) is float for d, t in singles)
        want_dist, want_turn = np.array(singles).T
        assert dist.shape == turn.shape == (12,)
        assert np.array_equal(dist.view(np.uint64), want_dist.view(np.uint64))
        assert np.array_equal(turn.view(np.uint64), want_turn.view(np.uint64))


def test_a_stack_with_a_repeated_vertex_in_any_row_raises():
    rng = random.Random(6)
    stack = np.array([random_polyline(rng, 6) for _ in range(5)])
    path_metrics(stack)
    for r in range(len(stack)):
        bad = stack.copy()
        bad[r, 4] = bad[r, 3]
        with pytest.raises(ValueError, match="repeats a vertex"):
            path_metrics(bad)


def test_an_empty_stack_gives_empty_arrays():
    dist, turn = path_metrics(np.empty((0, 7, 2)))
    assert isinstance(dist, np.ndarray) and isinstance(turn, np.ndarray)
    assert dist.shape == turn.shape == (0,)


def test_tour_is_frozen():
    t = Tour((0, 1), 1.0, 0.0, 0.1164, False)
    with pytest.raises(Exception):
        t.cost_kj = 5.0
