"""Farm map model: perimeter, obstacles, charging stations and the waypoint
grid laid over the field.

Map files are JSON:

    {
      "perimeter": {"min": [x, y], "max": [x, y]},
      "obstacles": [
        {"type": "circle", "center": [x, y], "radius": r},
        {"type": "rect", "min": [x, y], "max": [x, y]}
      ],
      "stations": [[x, y], ...],
      "clearance_m": 10.0,
      "grid_spacing_m": 38.0
    }

"obstacles", "clearance_m" and "grid_spacing_m" are optional (defaults: none,
10 m, 38 m). Unknown fields are rejected so typos fail loudly. The waypoint
grid may hold at most MAX_GRID_POINTS (10 000) points, rows x cols, so a tiny
grid_spacing_m fails at load time instead of planning for hours. Every error,
text that is not UTF-8 JSON, a NaN token, a number past the float range or deep
nesting included, is a :class:`MapSchemaError` naming the field if there is one.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .geometry import (Circle, Obstacle, Point2D, Rect, near_boxes, obstacle_boxes,
                       point_clearance)

DEFAULT_CLEARANCE_M = 10.0
DEFAULT_GRID_SPACING_M = 38.0
# rows x cols of the waypoint grid; every bundled or test map lays a few hundred
MAX_GRID_POINTS = 10_000

_TOP_FIELDS = {"perimeter", "obstacles", "stations", "clearance_m", "grid_spacing_m"}
_ECHO = reprlib.Repr()  # a document value in an error: short as repr, long or deep cut
_ECHO.maxlevel, _ECHO.maxlist, _ECHO.maxdict = 2, 4, 4


class MapSchemaError(ValueError):
    """Raised when a map document violates the schema or its invariants."""


@dataclass(frozen=True, slots=True)
class FarmMap:
    perimeter_min: Point2D
    perimeter_max: Point2D
    obstacles: tuple[Obstacle, ...]
    stations: tuple[Point2D, ...]
    clearance_m: float
    grid_spacing_m: float

    @property
    def width(self) -> float:
        return self.perimeter_max.x - self.perimeter_min.x

    @property
    def height(self) -> float:
        return self.perimeter_max.y - self.perimeter_min.y

    def contains(self, p: Point2D) -> bool:
        return (self.perimeter_min.x <= p.x <= self.perimeter_max.x
                and self.perimeter_min.y <= p.y <= self.perimeter_max.y)

    @property
    def clear_m(self) -> float:
        """The distance a waypoint, station or flight leg must keep from every
        obstacle to be clear: clearance_m, but at least the smallest positive
        float, so touching or lying inside an obstacle is never clear, even
        at clearance_m = 0."""
        return max(self.clearance_m, math.ulp(0.0))


@dataclass(frozen=True, slots=True)
class WaypointSet:
    """Grid waypoints in row-major order (x varies fastest) plus a validity
    mask: a waypoint is valid when it keeps at least FarmMap.clear_m distance
    to every obstacle."""

    points: tuple[Point2D, ...]
    valid: tuple[bool, ...]
    n_rows: int
    n_cols: int

    def row_col(self, index: int) -> tuple[int, int]:
        return divmod(index, self.n_cols)

    def valid_indices(self) -> tuple[int, ...]:
        return tuple(i for i, ok in enumerate(self.valid) if ok)

    @property
    def n_valid(self) -> int:
        return sum(self.valid)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MapSchemaError(f"{path}: expected a number, got {_ECHO.repr(value)}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range: inf, as it reads from a file
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise MapSchemaError(f"{path}: must be finite, got {_ECHO.repr(number)}")
    return number


def _point(value, path: str) -> Point2D:
    if not (isinstance(value, list) and len(value) == 2):
        raise MapSchemaError(f"{path}: expected [x, y]")
    return Point2D(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _check_fields(obj: dict, allowed: set[str], path: str):
    for key in obj:
        if key not in allowed:
            if not (isinstance(key, str) and key.isprintable() and len(key) <= _ECHO.maxstring):
                key = _ECHO.repr(key)
            raise MapSchemaError(f"{path}{key}: unknown field")


def _parse_obstacle(value, path: str) -> Obstacle:
    if not isinstance(value, dict):
        raise MapSchemaError(f"{path}: expected an object")
    kind = value.get("type")
    if kind == "circle":
        _check_fields(value, {"type", "center", "radius"}, f"{path}.")
        if "center" not in value or "radius" not in value:
            raise MapSchemaError(f"{path}: circle needs center and radius")
        center = _point(value["center"], f"{path}.center")
        radius = _number(value["radius"], f"{path}.radius")
        if radius <= 0:
            raise MapSchemaError(f"{path}.radius: must be positive, got {radius}")
        return Circle(center, radius)
    if kind == "rect":
        _check_fields(value, {"type", "min", "max"}, f"{path}.")
        if "min" not in value or "max" not in value:
            raise MapSchemaError(f"{path}: rect needs min and max")
        lo = _point(value["min"], f"{path}.min")
        hi = _point(value["max"], f"{path}.max")
        if not (lo.x < hi.x and lo.y < hi.y):
            raise MapSchemaError(f"{path}: min corner must be strictly below max corner")
        return Rect(lo, hi)
    raise MapSchemaError(f"{path}.type: expected 'circle' or 'rect', got {_ECHO.repr(kind)}")


def _reject_constant(token: str):
    raise MapSchemaError(f"map file contains non-finite number token {token!r}")


def _parse(text: str | bytes):
    try:
        if isinstance(text, bytes):  # as json.loads, but no encoded lone surrogates
            text = text.decode(json.detect_encoding(text))
        # ints parse as floats: one past the float range is inf, rejected where used
        return json.loads(text, parse_constant=_reject_constant, parse_int=float)
    except MapSchemaError:  # a ValueError too: passed on as it is
        raise
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting too deep
        raise MapSchemaError(f"map file is not valid JSON: {exc}") from exc


def read_map_document(path):
    """The map file's document, parsed for load_map but not validated."""
    with open(path, "rb") as fh:
        return _parse(fh.read())


def load_map(document: str | bytes | dict) -> FarmMap:
    """Parse and validate a map document (JSON text or an already-parsed dict).

    Raises MapSchemaError naming the offending field on any violation.
    """
    if isinstance(document, (str, bytes)):
        document = _parse(document)
    if not isinstance(document, dict):
        raise MapSchemaError("map document must be a JSON object")
    _check_fields(document, _TOP_FIELDS, "")

    if "perimeter" not in document:
        raise MapSchemaError("perimeter: missing required field")
    perim = document["perimeter"]
    if not isinstance(perim, dict):
        raise MapSchemaError("perimeter: expected an object with min and max")
    _check_fields(perim, {"min", "max"}, "perimeter.")
    if "min" not in perim or "max" not in perim:
        raise MapSchemaError("perimeter: needs min and max corners")
    pmin = _point(perim["min"], "perimeter.min")
    pmax = _point(perim["max"], "perimeter.max")
    if not (pmin.x < pmax.x and pmin.y < pmax.y):
        raise MapSchemaError("perimeter: must have positive area")

    obstacles = []
    raw_obstacles = document.get("obstacles", [])
    if not isinstance(raw_obstacles, list):
        raise MapSchemaError("obstacles: expected a list")
    for i, raw in enumerate(raw_obstacles):
        obstacles.append(_parse_obstacle(raw, f"obstacles[{i}]"))

    if "stations" not in document:
        raise MapSchemaError("stations: missing required field")
    raw_stations = document["stations"]
    if not isinstance(raw_stations, list):
        raise MapSchemaError("stations: expected a list of [x, y] pairs")
    stations = tuple(_point(s, f"stations[{i}]") for i, s in enumerate(raw_stations))

    clearance = _number(document.get("clearance_m", DEFAULT_CLEARANCE_M), "clearance_m")
    if clearance < 0:
        raise MapSchemaError(f"clearance_m: must be >= 0, got {clearance}")
    spacing = _number(document.get("grid_spacing_m", DEFAULT_GRID_SPACING_M), "grid_spacing_m")
    if spacing <= 0:
        raise MapSchemaError(f"grid_spacing_m: must be positive, got {spacing}")

    farm = FarmMap(pmin, pmax, tuple(obstacles), stations, clearance, spacing)
    # the span test first: it keeps the grid shape finite for _grid_shape
    if (not max(farm.width, farm.height) / spacing < MAX_GRID_POINTS
            or math.prod(_grid_shape(farm)) > MAX_GRID_POINTS):
        raise MapSchemaError(
            f"grid_spacing_m: {spacing:g} m lays more than {MAX_GRID_POINTS} "
            f"grid points over the perimeter")

    need = farm.clear_m
    for i, st in enumerate(stations):
        if not farm.contains(st):
            raise MapSchemaError(f"stations[{i}]: outside perimeter")
        for j, obstacle in enumerate(obstacles):
            d = point_clearance(st, obstacle)
            if d < need:
                # .3g never prints a positive shortfall as 0
                gap = (f"{d:.3g} m from obstacles[{j}], {clearance - d:.3g} m short of "
                       f"{clearance:.3g} m" if d > 0 else f"touches or lies inside obstacles[{j}]")
                raise MapSchemaError(f"stations[{i}]: station violates clearance ({gap})")
    return farm


def load_map_file(path) -> FarmMap:
    return load_map(read_map_document(path))


def generate_waypoints(farm: FarmMap) -> WaypointSet:
    """Lay a square grid of waypoints over the perimeter.

    Points sit at min_corner + (col * spacing, row * spacing), each coordinate
    clamped to the max corner, so every point lies inside the perimeter
    (boundary inclusive) even where float drift would lay the last row or
    column just past it. Validity requires at least farm.clear_m of distance
    to every obstacle; exact equality counts as valid when clearance_m > 0.
    """
    s = farm.grid_spacing_m
    need = farm.clear_m
    pmin, pmax = farm.perimeter_min, farm.perimeter_max
    n_rows, n_cols = _grid_shape(farm)
    boxes = obstacle_boxes(farm.obstacles)
    points = []
    valid = []
    for row in range(n_rows):
        y = min(pmin.y + row * s, pmax.y)
        line = [Point2D(min(pmin.x + col * s, pmax.x), y) for col in range(n_cols)]
        xy = np.array([[p.x, p.y] for p in line])
        near = near_boxes(xy, xy, boxes, need)  # one screen per grid row
        for p, hits in zip(line, near):
            valid.append(all(point_clearance(p, farm.obstacles[k]) >= need
                             for k in np.flatnonzero(hits).tolist()))
        points.extend(line)
    return WaypointSet(tuple(points), tuple(valid), n_rows, n_cols)


def _grid_shape(farm: FarmMap) -> tuple[int, int]:
    """(rows, cols) of the waypoint grid generate_waypoints lays."""
    s = farm.grid_spacing_m
    # tolerance absorbs float drift when the perimeter is an exact multiple
    return (int(math.floor(farm.height / s + 1e-9)) + 1,
            int(math.floor(farm.width / s + 1e-9)) + 1)


def reference_farm() -> FarmMap:
    """The bundled demonstration farm: 300 x 175 m with scattered trees, a
    house, a greenhouse and two charging stations by the house."""
    text = resources.files("farmpatrol").joinpath("data/reference_farm.json").read_text()
    return load_map(text)
