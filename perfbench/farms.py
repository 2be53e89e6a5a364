"""Seeded synthetic farm maps for the benchmark.

A map is returned as a plain JSON-style dict, ready for ``farmpatrol.load_map``.
Obstacles are anchored to the waypoint grid so that the number of valid
waypoints, and with it every graph size, is fixed by the spec rather than by
the draw:

* an *on-grid* obstacle sits within a few metres of one grid point and
  invalidates exactly that point, without reaching any grid edge not incident
  to it;
* a *mid-cell* obstacle sits near the centre of one grid cell, invalidates no
  point and blocks only legs that cut through that cell (its diagonals and
  longer legs), never the cell's four sides.

Removed points are kept at least two grid steps apart (Chebyshev) and away
from the stations, so the axis-aligned grid graph around each removed point
stays a ring and every valid waypoint reaches either station. That makes the
maps connected by construction; ``build_graph`` is never needed here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SPACING_M = 38.0
CLEARANCE_M = 10.0
# Jitter and size limits keep the invariants in the module docstring with
# SPACING_M = 38 and CLEARANCE_M = 10 (see the margins noted per kind).
_ON_CIRCLE_JITTER, _ON_CIRCLE_R = 6.0, (3.0, 10.0)   # reach 20 m, other legs >= 32 m away
_MID_CIRCLE_JITTER, _MID_CIRCLE_R = 4.0, (2.0, 4.0)  # reach 14 m, cell sides >= 15 m away
_ON_RECT_JITTER, _ON_RECT_HALF = 3.0, (2.0, 6.0)     # box edge >= 29 m from other legs
_MID_RECT_JITTER, _MID_RECT_HALF = 2.0, (1.5, 3.5)   # box edge >= 13.5 m from cell sides
_MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class FarmSpec:
    """Shape of one synthetic farm.

    on_grid obstacles each remove one waypoint; mid_cell ones remove none.
    rects of all the obstacles are drawn as boxes, the rest as circles."""

    width_m: float
    height_m: float
    on_grid: int
    mid_cell: int
    rects: int = 0

    @property
    def n_cols(self) -> int:
        return int(math.floor(self.width_m / SPACING_M + 1e-9)) + 1

    @property
    def n_rows(self) -> int:
        return int(math.floor(self.height_m / SPACING_M + 1e-9)) + 1

    @property
    def n_valid(self) -> int:
        """Valid waypoints the generated map will have."""
        return self.n_cols * self.n_rows - self.on_grid


def _circle(cx: float, cy: float, r: float) -> dict:
    return {"type": "circle", "center": [round(cx, 3), round(cy, 3)], "radius": round(r, 3)}


def _rect(cx: float, cy: float, hx: float, hy: float) -> dict:
    return {"type": "rect", "min": [round(cx - hx, 3), round(cy - hy, 3)],
            "max": [round(cx + hx, 3), round(cy + hy, 3)]}


def _place(spec: FarmSpec, rng: random.Random) -> tuple[list[dict], list[list[float]]] | None:
    cols, rows = spec.n_cols, spec.n_rows
    # two stations in cells of the bottom row, one in each half of the field
    station_cells = [(max(0, cols // 4 - 1), 0), (min(cols - 2, (3 * cols) // 4), 0)]
    stations = [[(c + 0.5) * SPACING_M, (r + 0.5) * SPACING_M] for c, r in station_cells]

    def near_station(col: float, row: float) -> bool:
        # keep the station's cell, its corners and their neighbours clear
        return any(abs(col - (c + 0.5)) <= 2.0 and abs(row - (r + 0.5)) <= 2.0
                   for c, r in station_cells)

    points = [(c, r) for r in range(rows) for c in range(cols) if not near_station(c, r)]
    cells = [(c, r) for r in range(rows - 1) for c in range(cols - 1)
             if not near_station(c + 0.5, r + 0.5) and (c, r) not in station_cells]
    rng.shuffle(points)
    rng.shuffle(cells)

    chosen_points: list[tuple[int, int]] = []
    for c, r in points:
        if len(chosen_points) == spec.on_grid:
            break
        if all(max(abs(c - c2), abs(r - r2)) >= 2 for c2, r2 in chosen_points):
            chosen_points.append((c, r))
    if len(chosen_points) < spec.on_grid or len(cells) < spec.mid_cell:
        return None

    n_obstacles = spec.on_grid + spec.mid_cell
    is_rect = set(rng.sample(range(n_obstacles), min(spec.rects, n_obstacles)))
    obstacles = []
    for k, (c, r) in enumerate(chosen_points):
        x, y = c * SPACING_M, r * SPACING_M
        if k in is_rect:
            j = _ON_RECT_JITTER
            obstacles.append(_rect(x + rng.uniform(-j, j), y + rng.uniform(-j, j),
                                   rng.uniform(*_ON_RECT_HALF), rng.uniform(*_ON_RECT_HALF)))
        else:
            j = _ON_CIRCLE_JITTER / math.sqrt(2)
            obstacles.append(_circle(x + rng.uniform(-j, j), y + rng.uniform(-j, j),
                                     rng.uniform(*_ON_CIRCLE_R)))
    for k, (c, r) in enumerate(cells[:spec.mid_cell], start=spec.on_grid):
        x, y = (c + 0.5) * SPACING_M, (r + 0.5) * SPACING_M
        if k in is_rect:
            j = _MID_RECT_JITTER
            obstacles.append(_rect(x + rng.uniform(-j, j), y + rng.uniform(-j, j),
                                   rng.uniform(*_MID_RECT_HALF), rng.uniform(*_MID_RECT_HALF)))
        else:
            j = _MID_CIRCLE_JITTER / math.sqrt(2)
            obstacles.append(_circle(x + rng.uniform(-j, j), y + rng.uniform(-j, j),
                                     rng.uniform(*_MID_CIRCLE_R)))
    # boxes go first: build_graph tests obstacles in list order and stops at
    # the first one a leg violates, so at the head of the list a box (about
    # ten times a circle's cost) is tested for nearly every pair on every map
    obstacles.sort(key=lambda o: o["type"] != "rect")
    return obstacles, stations


def generate_farm(spec: FarmSpec, seed: int) -> dict:
    """A map document for ``spec``, the same for the same seed."""
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        placed = _place(spec, rng)
        if placed is not None:
            obstacles, stations = placed
            return {
                "perimeter": {"min": [0.0, 0.0], "max": [spec.width_m, spec.height_m]},
                "obstacles": obstacles,
                "stations": stations,
                "clearance_m": CLEARANCE_M,
                "grid_spacing_m": SPACING_M,
            }
    raise ValueError(f"cannot place {spec.on_grid} separated on-grid obstacles in {spec}")
