"""The obstacle-box screen (geometry.near_boxes) ahead of the exact clearance
test.

The screen may only skip tests that would pass. Shapes built at the clearance
threshold check that directly; build_graph and generate_waypoints are checked
against plain loops over the scalar geometry on random and moved maps; and a
build must hold no array of all node pairs times all obstacles.
"""

import json
import math
import random
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farmpatrol.geometry import (Circle, Point2D, Rect, min_clearance, near_boxes,
                                 obstacle_boxes, point_clearance)
from farmpatrol.routegraph import DisconnectedGraphError, build_graph
from farmpatrol.world import MapSchemaError, generate_waypoints, load_map
from test_fuzz import random_map

UTM = 5e6  # metres: a map in UTM-sized coordinates


def screened(a: Point2D, b: Point2D, obstacle, need: float) -> bool:
    """near_boxes for one leg (or point, when a == b) and one obstacle."""
    xy = np.array([[a.x, a.y], [b.x, b.y]])
    return bool(near_boxes(xy.min(axis=0)[None], xy.max(axis=0)[None],
                           obstacle_boxes([obstacle]), need)[0, 0])


@st.composite
def at_the_threshold(draw):
    """An obstacle and a leg or point whose box lies on one side of the
    obstacle's box, at a gap of need plus a few units in the last place,
    so the screen's answer turns on its rounding margin."""
    shift = draw(st.sampled_from([0.0, UTM, -UTM, 123.25]))
    size = draw(st.sampled_from([1e-3, 1.0, 38.0, 900.0]))
    need = draw(st.sampled_from([math.ulp(0.0), size * draw(st.floats(0.0, 3.0))]))
    x0, y0 = shift + size * draw(st.floats(-1, 1)), shift + size * draw(st.floats(-1, 1))
    if draw(st.booleans()):
        r = size * draw(st.floats(0.01, 2.0))
        obstacle = Circle(Point2D(x0, y0), r)
        lo, hi = (x0 - r, y0 - r), (x0 + r, y0 + r)
        nearest = [(x0, y0)]  # a point over the centre is nearest the circle
    else:
        w, h = size * draw(st.floats(0.01, 2.0)), size * draw(st.floats(0.01, 2.0))
        obstacle = Rect(Point2D(x0, y0), Point2D(x0 + w, y0 + h))
        lo, hi = (x0, y0), (x0 + w, y0 + h)
        nearest = [lo, hi]  # in line with a side
    # the gap: need plus none, a few or up to several times the margin's
    # 4 096 ulps
    big = max(abs(v) for v in lo + hi + (need,))
    gap = need + draw(st.one_of(st.integers(0, 8), st.integers(0, 1 << 14))) * math.ulp(big)
    axis, above = draw(st.sampled_from([0, 1])), draw(st.booleans())
    edge = hi[axis] + gap if above else lo[axis] - gap
    # along the other axis in line with the shape's nearest points, or
    # anywhere from well before the box to well after it
    span = (lo[1 - axis] - 2 * size, hi[1 - axis] + 2 * size)
    ends = []
    for _ in range(2):
        across = draw(st.one_of(st.sampled_from([p[1 - axis] for p in nearest]),
                                st.floats(*span)))
        off = draw(st.sampled_from([0.0, 0.0, size * draw(st.floats(0.0, 2.0))]))
        away = edge + off if above else edge - off
        ends.append(Point2D(away, across) if axis == 0 else Point2D(across, away))
    a, b = ends if draw(st.booleans()) else (ends[0], ends[0])
    return a, b, obstacle, need


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(at_the_threshold())
# a leg tangent to a circle at exactly clear_m, also at UTM-sized coordinates
@example((Point2D(-20.0, 15.0), Point2D(20.0, 15.0), Circle(Point2D(0.0, 0.0), 5.0), 10.0))
@example((Point2D(UTM - 20, UTM + 15), Point2D(UTM + 20, UTM + 15),
          Circle(Point2D(UTM, UTM), 5.0), 10.0))
# a leg collinear with a rectangle side, clear_m past its end
@example((Point2D(15.0, 10.0), Point2D(40.0, 10.0), Rect(Point2D(0, 0), Point2D(10, 10)), 5.0))
@example((Point2D(UTM + 15, UTM + 10), Point2D(UTM + 40, UTM + 10),
          Rect(Point2D(UTM, UTM), Point2D(UTM + 10, UTM + 10)), 5.0))
# clearance_m = 0: a leg and a point touching the shapes
@example((Point2D(-5.0, 5.0), Point2D(5.0, 5.0), Circle(Point2D(0.0, 0.0), 5.0), math.ulp(0.0)))
@example((Point2D(10.0, 10.0), Point2D(20.0, 30.0), Rect(Point2D(0, 0), Point2D(10, 10)),
          math.ulp(0.0)))
@example((Point2D(10.0, 3.0), Point2D(10.0, 3.0), Rect(Point2D(0, 0), Point2D(10, 10)),
          math.ulp(0.0)))
# the exact test's rounding, which the margin covers: a point just past a
# rectangle's corner or just over a circle's rounded box reads as touching
@example((Point2D(0.001, 0.0), Point2D(0.001, 0.0),
          Rect(Point2D(0.001, 2.659985416198426e-144), Point2D(0.002, 0.001)), math.ulp(0.0)))
@example((Point2D(-31.677084463280746, -0.18117880645715437),
          Point2D(-31.677084463280746, -0.18117880645715437),
          Circle(Point2D(-31.677084463280746, -16.271673905562544), 16.09049509910539),
          math.ulp(0.0)))
def test_the_screen_skips_only_what_the_exact_test_clears(case):
    a, b, obstacle, need = case
    assert screened(a, b, obstacle, need) or min_clearance(a, b, obstacle) >= need


def test_the_screen_skips_a_box_past_its_margin():
    # the same tangent leg as above, 1 mm further out: far at every scale
    for shift in (0.0, UTM):
        circle = Circle(Point2D(shift, shift), 5.0)
        leg = Point2D(shift - 20, shift + 15.001), Point2D(shift + 20, shift + 15.001)
        assert not screened(*leg, circle, 10.0)
        assert screened(Point2D(shift - 20, shift + 15), Point2D(shift + 20, shift + 15),
                        circle, 10.0)
    # past 1e154 the exact test's products can overflow: everything is near
    far = Point2D(1e200, 1e200)
    assert screened(far, far, Circle(Point2D(0.0, 0.0), 1.0), 1.0)


def plain_graph(farm, waypoints, station, include):
    """(adjacency, unreachable grid ids) from a plain double loop over
    min_clearance and a search from home."""
    ids = sorted(include if include is not None else waypoints.valid_indices())
    pts = [waypoints.points[g] for g in ids] + [farm.stations[station]]
    n = len(pts)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i] != pts[j]:
                adj[i, j] = adj[j, i] = all(min_clearance(pts[i], pts[j], obs) >= farm.clear_m
                                            for obs in farm.obstacles)
    seen, todo = {n - 1}, [n - 1]
    while todo:
        for v in np.flatnonzero(adj[todo.pop()]).tolist():
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return adj, tuple(g for k, g in enumerate(ids) if k not in seen)


def moved(doc: dict, by: float) -> dict:
    def shift(p):
        return [p[0] + by, p[1] + by]

    out = dict(doc, perimeter={k: shift(v) for k, v in doc["perimeter"].items()},
               stations=[shift(s) for s in doc["stations"]])
    out["obstacles"] = [
        dict(o, center=shift(o["center"])) if o["type"] == "circle"
        else dict(o, min=shift(o["min"]), max=shift(o["max"])) for o in doc["obstacles"]]
    return out


REFERENCE_DOC = json.loads(
    resources.files("farmpatrol").joinpath("data/reference_farm.json").read_text())
MAPS = ([("reference", REFERENCE_DOC), ("reference moved by 5e6 m", moved(REFERENCE_DOC, UTM))]
        + [(f"random {seed}", random_map(random.Random(seed))) for seed in range(200)])


def loaded(doc):
    """load_map's FarmMap, or its error message."""
    try:
        return load_map(doc)
    except MapSchemaError as err:
        return str(err)


@pytest.mark.parametrize("doc", [doc for _, doc in MAPS], ids=[name for name, _ in MAPS])
def test_the_build_equals_the_plain_scalar_loops(doc):
    farm = loaded(doc)
    if isinstance(farm, str):
        return
    waypoints = generate_waypoints(farm)
    assert waypoints.valid == tuple(all(point_clearance(p, obs) >= farm.clear_m
                                        for obs in farm.obstacles) for p in waypoints.points)
    valid = waypoints.valid_indices()
    for station in range(len(farm.stations)):
        for include in (None, valid[: len(valid) // 2], valid[len(valid) // 2:]):
            adj, unreachable = plain_graph(farm, waypoints, station, include)
            try:
                g = build_graph(farm, waypoints, station, include)
            except DisconnectedGraphError as err:
                assert err.unreachable == unreachable != ()
            else:
                assert unreachable == ()
                assert np.array_equal(g.adj, adj)


def survey_farm():
    """900 x 520 m at 38 m: 336 grid points, 26 removed by circles on grid
    points three steps apart, 20 more circles mid-cell that block only
    diagonals; the station makes 311 nodes, and the graph is connected."""
    on_grid = [(c, r) for r in (1, 4, 7, 10, 13) for c in range(1, 24, 3)][:26]
    mid_cell = [(c + 0.5, r + 0.5) for r in (2, 5, 8, 11) for c in range(2, 23, 4)][:20]
    return load_map({
        "perimeter": {"min": [0, 0], "max": [900, 520]},
        "obstacles": [{"type": "circle", "center": [38 * c, 38 * r], "radius": 3}
                      for c, r in on_grid + mid_cell],
        "stations": [[890, 510]],
        "clearance_m": 10.0,
        "grid_spacing_m": 38.0,
    })


def test_a_build_holds_one_slice_of_screen_temporaries():
    farm = survey_farm()
    waypoints = generate_waypoints(farm)
    build_graph(farm, waypoints, 0)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        g = build_graph(farm, waypoints, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, m = g.n_nodes, len(farm.obstacles)
    assert (n, m) == (311, 46)
    adj = n * n                      # the bool adjacency
    frontier = n * n                 # the search from home: at most every row of adj
    xy = n * 2 * 8
    # one slice, node i against the later nodes:
    legs = 2 * n * 2 * 8             # the legs' boxes, lo and hi
    masks = 3 * n * m                # near, one comparison, and near & clear, bool
    buffer = np.getbufsize() * 2 * 8  # numpy's buffer of a broadcast float64 comparison
    # the (leg, obstacle) pairs the screen keeps, at most all of the slice's:
    # two int64 index arrays, their lists and the ints in them
    pairs = n * m * 2 * (8 + 8 + sys.getsizeof(1 << 20))
    # all pairs times all obstacles would be n * (n - 1) / 2 * m bytes even as bool
    assert peak < adj + frontier + xy + legs + masks + buffer + pairs
