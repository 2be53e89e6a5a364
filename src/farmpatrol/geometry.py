"""Planar primitives for the planner: points, segments, obstacle shapes,
distances, turn angles and clearance queries.

All coordinates are metres in a fixed east/north frame. Angles returned by
:func:`turn_angle_deg` are heading changes in degrees within [0, 180].

:func:`point_clearance` and :func:`min_clearance` are the one clearance
formula. :func:`near_boxes` is only their broad phase: a numpy screen of
many points or legs at once that tells which obstacles can be skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True)
class Segment2D:
    a: Point2D
    b: Point2D

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("degenerate segment: endpoints coincide")


@dataclass(frozen=True, slots=True)
class Circle:
    center: Point2D
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"circle radius must be positive, got {self.radius}")


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle given by its min and max corners."""

    min_corner: Point2D
    max_corner: Point2D

    def __post_init__(self):
        if not (self.min_corner.x < self.max_corner.x and self.min_corner.y < self.max_corner.y):
            raise ValueError("rectangle must have positive extent on both axes")

    def contains(self, p: Point2D) -> bool:
        return (self.min_corner.x <= p.x <= self.max_corner.x
                and self.min_corner.y <= p.y <= self.max_corner.y)

    def corners(self) -> tuple[Point2D, Point2D, Point2D, Point2D]:
        """Corners in counter-clockwise order starting at min_corner."""
        lo, hi = self.min_corner, self.max_corner
        return (lo, Point2D(hi.x, lo.y), hi, Point2D(lo.x, hi.y))


Obstacle = Circle | Rect


def distance(a: Point2D, b: Point2D) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def turn_angle_deg(h: Point2D, i: Point2D, j: Point2D) -> float:
    """Heading change at i when flying h -> i -> j, in degrees within [0, 180].

    Collinear continuation gives 0, a full reversal gives 180. The legs h->i
    and i->j must both have positive length.
    """
    if h == i or i == j:
        raise ValueError("turn angle needs two non-degenerate legs")
    ux, uy = i.x - h.x, i.y - h.y
    vx, vy = j.x - i.x, j.y - i.y
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.degrees(math.atan2(abs(cross), dot))


def _orient(a: Point2D, b: Point2D, c: Point2D) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_segment(a: Point2D, b: Point2D, p: Point2D) -> bool:
    # assumes p collinear with a-b
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_intersect(a: Point2D, b: Point2D, c: Point2D, d: Point2D) -> bool:
    """True when segments a-b and c-d share at least one point, touching included."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0
            and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0):
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def point_segment_distance(p: Point2D, a: Point2D, b: Point2D) -> float:
    abx, aby = b.x - a.x, b.y - a.y
    apx, apy = p.x - a.x, p.y - a.y
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(apx, apy)
    t = (apx * abx + apy * aby) / denom
    if t >= 1.0:
        # from b itself: ap - ab would lose an offset below an ulp of ab
        return math.hypot(p.x - b.x, p.y - b.y)
    t = max(0.0, t)
    return math.hypot(apx - t * abx, apy - t * aby)


def point_clearance(p: Point2D, obstacle: Obstacle) -> float:
    """Distance from p to the obstacle region; 0 when p touches or lies inside."""
    if isinstance(obstacle, Circle):
        return max(0.0, distance(p, obstacle.center) - obstacle.radius)
    lo, hi = obstacle.min_corner, obstacle.max_corner
    return math.hypot(max(lo.x - p.x, 0.0, p.x - hi.x), max(lo.y - p.y, 0.0, p.y - hi.y))


def min_clearance(seg: Segment2D, obstacle: Obstacle) -> float:
    """Smallest distance between any point of seg and the obstacle region.

    0 when the segment crosses, touches or lies inside the obstacle.
    """
    if isinstance(obstacle, Circle):
        d = point_segment_distance(obstacle.center, seg.a, seg.b)
        return max(0.0, d - obstacle.radius)
    # rectangle: a leg that crosses no edge lies clear of the box or inside
    # it, and comes nearest at an endpoint or where a corner nears the leg
    a, b = seg.a, seg.b
    corners = obstacle.corners()
    if any(segments_intersect(a, b, p, q) for p, q in zip(corners, corners[1:] + corners[:1])):
        return 0.0
    return min(point_clearance(a, obstacle), point_clearance(b, obstacle),
               *(point_segment_distance(c, a, b) for c in corners))


def obstacle_boxes(obstacles: Sequence[Obstacle]) -> np.ndarray:
    """(m, 2, 2) axis-aligned boxes of the obstacles, [[xmin, ymin], [xmax, ymax]]."""
    out = np.empty((len(obstacles), 2, 2))
    for k, obs in enumerate(obstacles):
        if isinstance(obs, Circle):
            (x, y), r = (obs.center.x, obs.center.y), obs.radius
            out[k] = ((x - r, y - r), (x + r, y + r))
        else:
            out[k] = ((obs.min_corner.x, obs.min_corner.y), (obs.max_corner.x, obs.max_corner.y))
    return out


def near_boxes(lo: np.ndarray, hi: np.ndarray, boxes: np.ndarray, need: float) -> np.ndarray:
    """(k, m) bool: whether box [lo[k], hi[k]] comes within need of obstacle
    box m on both axes, plus a rounding margin.

    lo and hi are (k, 2) corners: a leg's box is its endpoints' minimum and
    maximum, a point's is the point itself. boxes comes from obstacle_boxes.
    False means that every point of the box keeps at least need from that
    obstacle as point_clearance and min_clearance compute it, so the exact
    test may skip the obstacle; True means only that it has to run.
    """
    # A gap between two boxes on either axis is a lower bound on the distance
    # between any point of one and any point of the other, so in exact
    # arithmetic a gap past need would do. The margin covers rounding. Let
    # scale be the largest magnitude in play (coordinates, box bounds, need).
    # Each difference of two coordinates the exact test forms (at most
    # 2·scale) is off by at most ulp(scale). A point's distance to a rectangle
    # is two such differences and one hypot; a point-to-leg distance, a
    # circle's radius and the box bounds here add a few ulps each, so a
    # clearance sits within a few tens of ulp(scale) of the true one. A
    # rectangle's sides are axis-aligned, so two of the four orientations in
    # its crossing test have exact signs, and the other two can flip only for
    # a leg within about 2^-48·scale of the rectangle. 4 096 ulp(scale), at
    # most 9.1e-13·scale (3.8e-6 m at UTM-sized coordinates of 5e6 m), covers
    # both with wide room. The argument needs the exact test's products of
    # differences, up to 8·scale², to stay finite: past that every obstacle is
    # near and the exact test decides.
    scale = float(max(np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0),
                      np.abs(boxes).max(initial=0.0), need))
    reach = need + 4096 * math.ulp(scale) if 8 * scale * scale < math.inf else math.inf
    near = np.ones((len(lo), len(boxes)), dtype=bool)
    for axis in (0, 1):  # in place: the temporaries stay at two (k, m) masks
        near &= lo[:, axis, None] <= boxes[:, 1, axis] + reach
        near &= hi[:, axis, None] >= boxes[:, 0, axis] - reach
    return near
