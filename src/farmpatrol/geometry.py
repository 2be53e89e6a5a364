"""Planar primitives for the planner: points, segments, obstacle shapes,
distances, turn angles and clearance queries.

All coordinates are metres in a fixed east/north frame. Angles returned by
:func:`turn_angle_deg` are heading changes in degrees within [0, 180].
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
    t = min(1.0, max(0.0, t))
    return math.hypot(apx - t * abx, apy - t * aby)


def _sides(corners: tuple[Point2D, ...]) -> tuple[tuple[Point2D, Point2D], ...]:
    """A rectangle's edges as corner pairs, in the order of its corners."""
    return tuple(zip(corners, corners[1:] + corners[:1]))


def point_clearance(p: Point2D, obstacle: Obstacle) -> float:
    """Distance from p to the obstacle region; 0 when p touches or lies inside."""
    if isinstance(obstacle, Circle):
        return max(0.0, distance(p, obstacle.center) - obstacle.radius)
    if obstacle.contains(p):
        return 0.0
    return min(point_segment_distance(p, q, r) for q, r in _sides(obstacle.corners()))


def min_clearance(seg: Segment2D, obstacle: Obstacle) -> float:
    """Smallest distance between any point of seg and the obstacle region.

    0 when the segment crosses, touches or lies inside the obstacle.
    """
    if isinstance(obstacle, Circle):
        d = point_segment_distance(obstacle.center, seg.a, seg.b)
        return max(0.0, d - obstacle.radius)
    # rectangle: an endpoint inside or a crossing of an edge means contact;
    # otherwise the nearest approach is from an endpoint to an edge or from a
    # corner to the segment
    a, b = seg.a, seg.b
    if obstacle.contains(a) or obstacle.contains(b):
        return 0.0
    corners = obstacle.corners()
    sides = _sides(corners)
    if any(segments_intersect(a, b, p, q) for p, q in sides):
        return 0.0
    return min([point_segment_distance(a, p, q) for p, q in sides]
               + [point_segment_distance(b, p, q) for p, q in sides]
               + [point_segment_distance(c, a, b) for c in corners])
