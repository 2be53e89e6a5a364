"""Independent reference implementations used to check the package.

Everything here is written from first principles with different formulas than
the library (edge-by-edge point distances, dense sampling plus ternary-search
refinement, exhaustive permutation search) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math


def point_circle_clearance(px, py, cx, cy, r):
    return max(0.0, math.hypot(px - cx, py - cy) - r)


def _interval_distance(u, v, lo, hi, w):
    """Distance from (u, v) to the interval lo <= u' <= hi of the line v' = w:
    a drop onto it when u lies over it, else the distance to its nearer end."""
    if u < lo:
        return math.hypot(lo - u, v - w)
    if u > hi:
        return math.hypot(u - hi, v - w)
    return abs(v - w)


def point_rect_clearance(px, py, xmin, ymin, xmax, ymax):
    # 0 inside or on the boundary; otherwise the nearest of the four edges
    if xmin <= px <= xmax and ymin <= py <= ymax:
        return 0.0
    return min(_interval_distance(px, py, xmin, xmax, ymin),
               _interval_distance(px, py, xmin, xmax, ymax),
               _interval_distance(py, px, ymin, ymax, xmin),
               _interval_distance(py, px, ymin, ymax, xmax))


def segment_clearance(ax, ay, bx, by, point_fn, samples=512, refine=200):
    """Min over the segment of a pointwise clearance function.

    point_fn(t) with t in [0, 1] must be convex along the segment, which holds
    for distance to any convex region. Dense sampling locates the basin and
    ternary search refines it far below 1e-9.
    """

    def f(t):
        return point_fn(ax + t * (bx - ax), ay + t * (by - ay))

    ts = [k / (samples - 1) for k in range(samples)]
    vals = [f(t) for t in ts]
    k = min(range(samples), key=vals.__getitem__)
    lo = ts[k - 1] if k > 0 else 0.0
    hi = ts[k + 1] if k < samples - 1 else 1.0
    for _ in range(refine):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return min(vals[k], f((lo + hi) / 2.0))


def seg_circle_clearance(ax, ay, bx, by, cx, cy, r):
    return segment_clearance(
        ax, ay, bx, by, lambda px, py: point_circle_clearance(px, py, cx, cy, r))


def seg_rect_clearance(ax, ay, bx, by, xmin, ymin, xmax, ymax):
    return segment_clearance(
        ax, ay, bx, by,
        lambda px, py: point_rect_clearance(px, py, xmin, ymin, xmax, ymax))


def polyline_cost(points, lam, gam):
    """Energy of a polyline from scratch: lam per metre plus gam per degree of
    heading change at interior vertices."""
    dist = 0.0
    turn = 0.0
    for k in range(len(points) - 1):
        (x0, y0), (x1, y1) = points[k], points[k + 1]
        dist += math.hypot(x1 - x0, y1 - y0)
    for k in range(1, len(points) - 1):
        (x0, y0), (x1, y1), (x2, y2) = points[k - 1], points[k], points[k + 1]
        ux, uy = x1 - x0, y1 - y0
        vx, vy = x2 - x1, y2 - y1
        ang = math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
        turn += math.degrees(ang)
    return lam * dist + gam * turn


def best_closed_tour(coords, home_xy, lam, gam):
    """Exhaustive optimum over all closed tours home -> perm(coords) -> home.

    Returns (best_cost, best_order) where best_order is a tuple of indices
    into coords. Ties resolve to the lexicographically smallest order.
    """
    n = len(coords)
    best = (math.inf, None)
    for perm in itertools.permutations(range(n)):
        pts = [home_xy] + [coords[k] for k in perm] + [home_xy]
        c = polyline_cost(pts, lam, gam)
        if c < best[0]:
            best = (c, perm)
    return best


def greedy_tour_cost(points, lam, gam):
    """Cost of the greedy closed tour from the last point (home), walked with
    scalar arithmetic.

    From home, each hop goes to the unvisited point with the lowest
    lam * length + gam * heading change at the current point (no heading
    change on the first hop), ties to the lower index; points at zero
    distance from the current one are never hops, and points at zero
    distance from home are never visited, so the walk cannot close on a
    zero-length leg. The walk ends when no point is left and returns home.
    Edges are not consulted: every pair counts as a straight leg. A walk
    with no hop at all costs 0.
    """
    home = len(points) - 1
    order = [home]
    seen = {j for j in range(len(points)) if points[j] == points[home]}
    while True:
        x0, y0 = points[order[-1]]
        best = None
        for j in range(len(points)):
            if j in seen:
                continue
            x1, y1 = points[j]
            leg = math.hypot(x1 - x0, y1 - y0)
            if leg == 0.0:
                continue
            turn = 0.0
            if len(order) > 1:
                px, py = points[order[-2]]
                ux, uy = x0 - px, y0 - py
                vx, vy = x1 - x0, y1 - y0
                turn = math.degrees(math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))
            cost = lam * leg + gam * turn
            if best is None or cost < best[0]:
                best = (cost, j)
        if best is None:
            break
        order.append(best[1])
        seen.add(best[1])
    if len(order) == 1:
        return 0.0
    return polyline_cost([points[k] for k in order + [home]], lam, gam)


def crossing_legs(points):
    """Pairs (p, q), p < q, of legs p: points[p] -> points[p + 1] of a polyline
    that cross at one point inside both, found by solving for the two line
    parameters (Cramer's rule) and requiring both to lie in (0, 1).
    Parallel legs never count."""
    out = []
    for p in range(len(points) - 1):
        (ax, ay), (bx, by) = points[p], points[p + 1]
        for q in range(p + 1, len(points) - 1):
            (cx, cy), (dx, dy) = points[q], points[q + 1]
            det = (bx - ax) * (cy - dy) - (by - ay) * (cx - dx)
            if det == 0.0:
                continue
            s = ((cx - ax) * (cy - dy) - (cy - ay) * (cx - dx)) / det
            t = ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / det
            if 0.0 < s < 1.0 and 0.0 < t < 1.0:
                out.append((p, q))
    return out


def serpentine_order(node_xy, node_row_col, grid_xy, home_xy):
    """The nodes of a back-and-forth sweep in visiting order, from
    coordinates: lines run along the longer extent of the grid points
    grid_xy (x on a tie) and group the nodes by grid row (or column), given
    per node in node_row_col; lines are sorted by their coordinate across,
    each line's nodes by their coordinate along. The sweep starts on the
    extreme line whose across coordinate lies nearer to home_xy's (the first
    on a tie), enters it at the end nearer home (the lower on a tie) and
    turns back at the end of every line."""
    xs = [x for x, _ in grid_xy]
    ys = [y for _, y in grid_xy]
    along_x = max(xs) - min(xs) >= max(ys) - min(ys)
    along, across = (0, 1) if along_x else (1, 0)
    lines = {}
    for node, (row, col) in enumerate(node_row_col):
        lines.setdefault(row if along_x else col, []).append(node)
    keys = sorted(lines, key=lambda key: node_xy[lines[key][0]][across])

    def gap(key):
        return abs(node_xy[lines[key][0]][across] - home_xy[across])

    if gap(keys[-1]) < gap(keys[0]):
        keys.reverse()
    order = []
    for k, key in enumerate(keys):
        line = sorted(lines[key], key=lambda node: node_xy[node][along])
        if k == 0:
            forward = math.dist(home_xy, node_xy[line[0]]) <= math.dist(home_xy, node_xy[line[-1]])
        order.extend(line if forward else line[::-1])
        forward = not forward
    return order
