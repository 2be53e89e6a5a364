import json

import pytest

from farmpatrol.geometry import Circle, Point2D, Rect
from farmpatrol.world import (
    MAX_GRID_POINTS, MapSchemaError, generate_waypoints, load_map, reference_farm,
)


def minimal_doc(**extra):
    doc = {
        "perimeter": {"min": [0, 0], "max": [100, 100]},
        "stations": [[0, 0]],
    }
    doc.update(extra)
    return doc


def test_load_minimal_map_defaults():
    m = load_map(json.dumps(minimal_doc()))
    assert m.clearance_m == 10.0
    assert m.grid_spacing_m == 38.0
    assert m.obstacles == ()
    assert m.stations == (Point2D(0, 0),)


def test_load_map_accepts_parsed_dict():
    m = load_map(minimal_doc(grid_spacing_m=25))
    assert m.grid_spacing_m == 25.0


def test_unknown_field_rejected():
    with pytest.raises(MapSchemaError, match="fences"):
        load_map(minimal_doc(fences=[]))
    with pytest.raises(MapSchemaError, match="perimeter.margin"):
        load_map({"perimeter": {"min": [0, 0], "max": [1, 1], "margin": 2},
                  "stations": []})


def test_obstacle_parsing():
    doc = minimal_doc(obstacles=[
        {"type": "circle", "center": [50, 50], "radius": 5},
        {"type": "rect", "min": [70, 70], "max": [80, 90]},
    ])
    m = load_map(doc)
    assert m.obstacles == (Circle(Point2D(50, 50), 5.0),
                           Rect(Point2D(70, 70), Point2D(80, 90)))


def test_obstacle_errors_carry_field_path():
    with pytest.raises(MapSchemaError, match=r"obstacles\[0\].radius"):
        load_map(minimal_doc(obstacles=[{"type": "circle", "center": [1, 1], "radius": -2}]))
    with pytest.raises(MapSchemaError, match=r"obstacles\[1\].type"):
        load_map(minimal_doc(obstacles=[
            {"type": "rect", "min": [0, 0], "max": [1, 1]},
            {"type": "blob"},
        ]))


def test_nonpositive_spacing_rejected():
    with pytest.raises(MapSchemaError, match="grid_spacing_m"):
        load_map(minimal_doc(grid_spacing_m=0))
    with pytest.raises(MapSchemaError, match="clearance_m"):
        load_map(minimal_doc(clearance_m=-1))


def test_grid_point_limit():
    # 100 x 100 grid points exactly: the limit is inclusive
    farm = load_map(minimal_doc(perimeter={"min": [0, 0], "max": [99, 99]},
                                grid_spacing_m=1.0))
    w = generate_waypoints(farm)
    assert w.n_rows * w.n_cols == MAX_GRID_POINTS
    with pytest.raises(MapSchemaError, match="grid_spacing_m.*10000 grid points"):
        load_map(minimal_doc(perimeter={"min": [0, 0], "max": [100, 99]},
                             grid_spacing_m=1.0))
    # ~5e10 points at 1 mm spacing, and a perimeter whose width overflows
    with pytest.raises(MapSchemaError, match="grid_spacing_m"):
        load_map(minimal_doc(grid_spacing_m=0.001))
    with pytest.raises(MapSchemaError, match="grid_spacing_m"):
        load_map(minimal_doc(perimeter={"min": [-1e308, 0], "max": [1e308, 100]}))


def test_nonfinite_coordinates_rejected():
    text = '{"perimeter": {"min": [0, 0], "max": [1e400, 100]}, "stations": []}'
    with pytest.raises(MapSchemaError):
        load_map(text)
    with pytest.raises(MapSchemaError):
        load_map('{"perimeter": {"min": [0, 0], "max": [NaN, 100]}, "stations": []}')


def test_station_inside_obstacle_rejected():
    doc = minimal_doc(obstacles=[{"type": "circle", "center": [0, 0], "radius": 5}])
    with pytest.raises(MapSchemaError, match="station violates clearance"):
        load_map(doc)


def test_zero_clearance_never_admits_contact():
    # at clearance 0 a waypoint or station inside an obstacle, or on its
    # boundary, is still not clear
    doc = minimal_doc(perimeter={"min": [0, 0], "max": [80, 40]},
                      obstacles=[{"type": "circle", "center": [40, 20], "radius": 12},
                                 {"type": "rect", "min": [0, 30], "max": [10, 40]}],
                      stations=[[80, 0]], clearance_m=0, grid_spacing_m=20)
    w = generate_waypoints(load_map(doc))
    invalid = [p for p, ok in zip(w.points, w.valid) if not ok]
    assert invalid == [Point2D(40, 20), Point2D(0, 40)]  # inside the circle, the rect's corner
    for station in ([40, 20], [10, 35]):  # inside the circle, on the rect's edge
        with pytest.raises(MapSchemaError, match="touches or lies inside obstacles"):
            load_map({**doc, "stations": [station]})


def test_station_outside_perimeter_rejected():
    with pytest.raises(MapSchemaError, match=r"stations\[0\]"):
        load_map(minimal_doc(stations=[[150, 50]]))


def test_perimeter_positive_area():
    with pytest.raises(MapSchemaError, match="perimeter"):
        load_map({"perimeter": {"min": [0, 0], "max": [0, 100]}, "stations": []})


def test_generate_waypoints_100x100():
    m = load_map(minimal_doc())
    w = generate_waypoints(m)
    # spacing 38 fits 0, 38, 76 on both axes
    assert (w.n_rows, w.n_cols) == (3, 3)
    assert len(w.points) == 9
    assert all(w.valid)
    assert w.points[0] == Point2D(0, 0)
    assert w.points[1] == Point2D(38, 0)   # x varies fastest
    assert w.points[3] == Point2D(0, 38)
    assert w.points[8] == Point2D(76, 76)


def test_waypoint_exactly_at_clearance_is_valid():
    doc = minimal_doc(obstacles=[{"type": "circle", "center": [38, 8], "radius": 10}],
                      clearance_m=20, stations=[[90, 90]])
    w = generate_waypoints(load_map(doc))
    # waypoint (38, 38) sits exactly clearance + radius above the center
    idx = 4  # row 1, column 1 of the 3 x 3 grid
    assert w.row_col(idx) == (1, 1)
    assert w.points[idx] == Point2D(38, 38)
    assert w.valid[idx]


def test_waypoint_inside_clearance_is_invalid():
    doc = minimal_doc(obstacles=[{"type": "rect", "min": [30, 30], "max": [46, 46]}],
                      stations=[[90, 90]])
    w = generate_waypoints(load_map(doc))
    assert not w.valid[4]  # row 1, column 1 of the 3 x 3 grid
    assert w.valid[0]
    assert w.n_valid == 8


def test_grid_boundary_inclusive():
    doc = {"perimeter": {"min": [0, 0], "max": [76, 38]}, "stations": [],
           "grid_spacing_m": 38}
    w = generate_waypoints(load_map(doc))
    assert (w.n_rows, w.n_cols) == (2, 3)


def test_grid_points_lie_inside_the_perimeter_despite_float_drift():
    # 0.3 / 0.1 reads 2.9999999999999996, so the tolerance lays a fourth row
    # and column, and 3 * 0.1 is 0.30000000000000004
    farm = load_map({"perimeter": {"min": [0, 0], "max": [0.3, 0.3]}, "stations": [],
                     "grid_spacing_m": 0.1})
    w = generate_waypoints(farm)
    assert (w.n_rows, w.n_cols) == (4, 4)
    assert all(farm.contains(p) for p in w.points)
    assert {p.x for p in w.points} == {p.y for p in w.points} == {0.0, 0.1, 0.2, 0.3}


def test_reference_farm_shape():
    m = reference_farm()
    assert (m.width, m.height) == (300.0, 175.0)
    circles = [o for o in m.obstacles if isinstance(o, Circle)]
    rects = [o for o in m.obstacles if isinstance(o, Rect)]
    assert len(circles) == 3 and all(c.radius == 8.0 for c in circles)
    assert len(rects) == 2
    assert len(m.stations) == 2
    w = generate_waypoints(m)
    assert (w.n_rows, w.n_cols) == (5, 8)
    assert w.n_valid >= 30
