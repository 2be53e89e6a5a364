import math
import random

import pytest

import oracles
from farmpatrol.geometry import (
    Circle, Point2D, Rect, distance, min_clearance, point_clearance,
    point_segment_distance, segments_intersect, turn_angle_deg,
)


def P(x, y):
    return Point2D(x, y)


def test_distance_345():
    assert distance(P(0, 0), P(3, 4)) == 5.0


def test_turn_angle_examples():
    assert turn_angle_deg(P(0, 0), P(1, 0), P(2, 0)) == 0.0
    assert abs(turn_angle_deg(P(0, 0), P(1, 0), P(1, 1)) - 90.0) < 1e-12
    assert abs(turn_angle_deg(P(0, 0), P(1, 0), P(0, 0)) - 180.0) < 1e-12


def test_turn_angle_rejects_degenerate_legs():
    with pytest.raises(ValueError):
        turn_angle_deg(P(1, 1), P(1, 1), P(2, 2))
    with pytest.raises(ValueError):
        turn_angle_deg(P(0, 0), P(1, 1), P(1, 1))


def test_turn_angle_range_and_reversal_symmetry():
    rng = random.Random(7)
    for _ in range(10_000):
        pts = []
        while len(pts) < 3:
            cand = P(rng.uniform(-100, 100), rng.uniform(-100, 100))
            if not pts or cand != pts[-1]:
                pts.append(cand)
        h, i, j = pts
        ang = turn_angle_deg(h, i, j)
        assert 0.0 <= ang <= 180.0
        # traversing the corner in the opposite direction gives the same angle
        assert turn_angle_deg(j, i, h) == ang


def test_min_clearance_circle_example():
    assert abs(min_clearance(P(0, 5), P(10, 5), Circle(P(5, 0), 3.0)) - 2.0) < 1e-9


def test_min_clearance_rect_example():
    assert abs(min_clearance(P(0, 5), P(10, 5), Rect(P(2, 0), P(8, 3))) - 2.0) < 1e-9


def test_min_clearance_zero_when_crossing():
    a, b = P(-10, 0), P(10, 0)
    assert min_clearance(a, b, Circle(P(0, 0), 2.0)) == 0.0
    assert min_clearance(a, b, Rect(P(-1, -1), P(1, 1))) == 0.0
    # fully inside the rectangle
    assert min_clearance(P(-0.5, 0), P(0.5, 0), Rect(P(-1, -1), P(1, 1))) == 0.0


def _random_segment(rng):
    while True:
        a = P(rng.uniform(-50, 50), rng.uniform(-50, 50))
        b = P(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if a != b:
            return a, b


def _random_obstacle(rng):
    if rng.random() < 0.5:
        return Circle(P(rng.uniform(-40, 40), rng.uniform(-40, 40)), rng.uniform(0.5, 15))
    x0, y0 = rng.uniform(-40, 40), rng.uniform(-40, 40)
    return Rect(P(x0, y0), P(x0 + rng.uniform(0.5, 30), y0 + rng.uniform(0.5, 30)))


def test_min_clearance_matches_sampling_oracle():
    rng = random.Random(123)
    for _ in range(300):
        a, b = _random_segment(rng)
        obs = _random_obstacle(rng)
        got = min_clearance(a, b, obs)
        if isinstance(obs, Circle):
            want = oracles.seg_circle_clearance(
                a.x, a.y, b.x, b.y,
                obs.center.x, obs.center.y, obs.radius)
        else:
            want = oracles.seg_rect_clearance(
                a.x, a.y, b.x, b.y,
                obs.min_corner.x, obs.min_corner.y,
                obs.max_corner.x, obs.max_corner.y)
        assert got == pytest.approx(want, abs=1e-6)


def test_segments_intersect_cases():
    assert segments_intersect(P(0, 0), P(2, 2), P(0, 2), P(2, 0))
    assert not segments_intersect(P(0, 0), P(1, 0), P(0, 1), P(1, 1))
    # shared endpoint counts as touching
    assert segments_intersect(P(0, 0), P(1, 0), P(1, 0), P(1, 1))
    # collinear overlap
    assert segments_intersect(P(0, 0), P(3, 0), P(2, 0), P(5, 0))
    # collinear but disjoint
    assert not segments_intersect(P(0, 0), P(1, 0), P(2, 0), P(3, 0))


def test_point_segment_distance():
    assert point_segment_distance(P(5, 5), P(0, 0), P(10, 0)) == 5.0
    # beyond the endpoint, distance is to the endpoint
    assert point_segment_distance(P(13, 4), P(0, 0), P(10, 0)) == 5.0


def test_point_clearance():
    rect = Rect(P(0, 0), P(4, 4))
    assert point_clearance(P(2, 2), rect) == 0.0
    assert point_clearance(P(4, 2), rect) == 0.0
    assert point_clearance(P(7, 6), rect) == pytest.approx(math.hypot(3, 2), rel=1e-12)
    circ = Circle(P(0, 0), 2.0)
    assert point_clearance(P(1, 0), circ) == 0.0
    assert point_clearance(P(5, 0), circ) == 3.0


# a point a hair outside a rectangle, 1e-12 m and 2.66e-144 m off a side and
# off a corner, and the far end of a leg from it that leads away: (point,
# far end, rectangle)
HAIRLINE = [
    ((41.3 + 1e-12, 14.5), (60.0, 14.5), (3.7, 1.9, 41.3, 27.1)),
    ((41.3 + 1e-12, 27.1 + 1e-12), (60.0, 40.0), (3.7, 1.9, 41.3, 27.1)),
    ((0.0015, 0.0), (0.0015, -0.001), (0.001, 2.66e-144, 0.002, 0.001)),
    ((0.001, 0.0), (0.0, -0.001), (0.001, 2.66e-144, 0.002, 0.001)),
    ((-2.66e-144, -2.66e-144), (-1.0, -1.0), (0.0, 0.0, 1.0, 1.0)),
]


def test_point_clearance_on_rects_matches_edge_oracle():
    def check(px, py, x0, y0, x1, y1):
        want = oracles.point_rect_clearance(px, py, x0, y0, x1, y1)
        got = point_clearance(P(px, py), Rect(P(x0, y0), P(x1, y1)))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    rng = random.Random(17)
    for _ in range(400):
        x0, y0 = rng.uniform(-50, 50), rng.uniform(-50, 50)
        x1, y1 = x0 + rng.uniform(0.1, 40), y0 + rng.uniform(0.1, 40)
        # on an edge or corner line, inside, and on either side beyond it:
        # every pair is inside, on an edge or corner, or in a side or corner region
        xs = (x0, x1, rng.uniform(x0, x1), rng.uniform(x0 - 30, x0), rng.uniform(x1, x1 + 30))
        ys = (y0, y1, rng.uniform(y0, y1), rng.uniform(y0 - 30, y0), rng.uniform(y1, y1 + 30))
        for px in xs:
            for py in ys:
                check(px, py, x0, y0, x1, y1)
    # clear of a side or corner by far less than an ulp of the sides: not touching
    for p, _, rect in HAIRLINE:
        check(*p, *rect)


def test_min_clearance_keeps_an_offset_below_an_ulp_of_the_leg():
    # the leg ends 2.66e-144 m below the rectangle's corner
    want = oracles.seg_rect_clearance(0.0, 0.0, 0.001, 0.0, 0.001, 2.66e-144, 0.002, 0.001)
    got = min_clearance(P(0.0, 0.0), P(0.001, 0.0), Rect(P(0.001, 2.66e-144), P(0.002, 0.001)))
    assert want == 2.66e-144
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # a leg that leads away from a point a hair outside
    for (px, py), (qx, qy), rect in HAIRLINE:
        want = oracles.seg_rect_clearance(px, py, qx, qy, *rect)
        got = min_clearance(P(px, py), P(qx, qy), Rect(P(*rect[:2]), P(*rect[2:])))
        assert want == oracles.point_rect_clearance(px, py, *rect) > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_a_zero_length_leg_measures_as_its_point():
    rng = random.Random(31)
    points = [P(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(200)]
    cases = [(p, _random_obstacle(rng)) for p in points]
    rect, circle = Rect(P(0, 0), P(4, 3)), Circle(P(-1.5, 2.25), 2.5)
    cases += [
        (P(1.5, 1.25), rect),  # inside
        (P(4, 1.75), rect),    # on an edge
        (P(0, 3), rect),       # at a corner
        (P(1, 2.25), circle),  # on the circle
    ]
    for p, obs in cases:
        assert min_clearance(p, p, obs) == point_clearance(p, obs)
    assert [min_clearance(p, p, obs) for p, obs in cases[-4:]] == [0.0] * 4


def test_shape_validation():
    with pytest.raises(ValueError):
        Circle(P(0, 0), 0.0)
    with pytest.raises(ValueError):
        Rect(P(1, 0), P(0, 1))
    with pytest.raises(ValueError):
        Point2D(math.nan, 0.0)
