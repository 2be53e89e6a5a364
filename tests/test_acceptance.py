"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single
"[criterion N] name: PASS/FAIL" line, so the run output doubles as the
acceptance report. Heavier statistical checks (30-trial benchmark) share one
module-scoped run.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

import oracles
from farmpatrol import (
    AcoParams,
    BenchConfig,
    EnergyModel,
    Point2D,
    build_graph,
    generate_waypoints,
    heuristic,
    load_map,
    min_clearance,
    reference_farm,
    run_benchmark,
    solve,
    turn_angle_deg,
)
from farmpatrol.cli import main as cli_main
from farmpatrol.energy import path_metrics, tour_cost
from farmpatrol.geometry import Circle, Rect
from farmpatrol.routegraph import DisconnectedGraphError
from farmpatrol.world import MapSchemaError

MODEL = EnergyModel()


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def bench():
    """One full default benchmark on the packaged farm: 30 seeded trials per
    colony cell, shared by the improvement and validity criteria."""
    t0 = time.perf_counter()
    summary, reports, best = run_benchmark(reference_farm(), BenchConfig())
    elapsed = time.perf_counter() - t0
    return summary, reports, elapsed


def cell(summary, solver, problem):
    for c in summary.cells:
        if c.solver == solver and c.problem == problem:
            return c
    raise AssertionError(f"missing cell {solver}/{problem}")


# ---------------------------------------------------------------- criteria

def test_01_small_instance_optimality():
    """On tiny obstacle-free fields the colony should find the exhaustive
    optimum almost always and never land far from it."""
    with criterion(1, "small-instance optimality vs exhaustive search"):
        shapes = [(1, 5), (5, 1), (2, 3), (3, 2), (1, 6), (6, 1), (1, 7), (7, 1)]
        exact = 0
        t0 = time.perf_counter()
        for i in range(20):
            rng = random.Random(1000 + i)
            rows, cols = shapes[rng.randrange(len(shapes))]
            s = 30.0
            w = (cols - 1) * s + rng.uniform(1.0, s - 1.0)
            h = (rows - 1) * s + rng.uniform(1.0, s - 1.0)
            sx, sy = rng.uniform(0.5, w - 0.5), rng.uniform(0.5, h - 0.5)
            # strip fields get an end-of-field station (like real farms keep
            # chargers by the boundary power supply): a mid-strip station
            # makes the optimum open with a long leg the greedy heuristic
            # all but forbids, which stalls any colony at a near-optimum
            if rows == 1 and cols > 1:
                sx = rng.uniform(0.5, 6.0) if rng.random() < 0.5 else w - rng.uniform(0.5, 6.0)
            elif cols == 1 and rows > 1:
                sy = rng.uniform(0.5, 6.0) if rng.random() < 0.5 else h - rng.uniform(0.5, 6.0)
            farm = load_map({
                "perimeter": {"min": [0, 0], "max": [w, h]},
                "obstacles": [],
                "stations": [[sx, sy]],
                "clearance_m": 0.5,
                "grid_spacing_m": s,
            })
            wp = generate_waypoints(farm)
            assert 5 <= wp.n_valid <= 7
            g = build_graph(farm, wp, 0)
            coords = [(p.x, p.y) for p in wp.points]
            home = (farm.stations[0].x, farm.stations[0].y)
            opt, _ = oracles.best_closed_tour(
                coords, home, MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg)

            run = solve(g, MODEL, AcoParams(variant="AS", n_ants=20,
                                            n_iterations=200, seed=i))
            assert run.best_tour.is_valid
            rel = (run.best_tour.cost_kj - opt) / opt
            assert rel >= -1e-9          # oracle is a true lower bound
            assert rel <= 0.05
            if abs(rel) <= 1e-9:
                exact += 1
        elapsed = time.perf_counter() - t0
        assert exact >= 18, f"only {exact}/20 exact optima"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_mean_improvement_over_baseline(bench):
    summary, _, elapsed = bench
    with criterion(2, "single-drone colony beats sweep baseline by >= 10%"):
        c = cell(summary, "AS", "single")
        base = cell(summary, "back-and-forth", "single")
        assert base.mean_cost_kj is not None and c.mean_cost_kj is not None
        assert c.trials_valid > 0
        assert c.mean_cost_kj <= 0.90 * base.mean_cost_kj, (
            f"mean {c.mean_cost_kj:.2f} vs baseline {base.mean_cost_kj:.2f}")
        assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"


def test_03_validity_floor(bench):
    summary, _, _ = bench
    with criterion(3, "colony validity >= 50% on both problems"):
        for solver in ("AS", "MMAS"):
            for problem in ("single", "dual"):
                c = cell(summary, solver, problem)
                assert c.error is None, f"{solver}/{problem}: {c.error}"
                assert c.trials_run == 30
                assert c.trials_valid >= 15, (
                    f"{solver}/{problem}: {c.trials_valid}/30 valid")


def test_04_cost_model_invariants():
    """Energy of a flight path must not depend on where the farm sits, which
    way the path is flown, or how the axes are oriented."""
    with criterion(4, "cost invariants: reversal, rigid motion, scaling"):
        rng = random.Random(4)
        lam, gam = MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg
        for _ in range(1000):
            n = rng.randint(3, 12)
            pts = [(rng.uniform(-500, 500), rng.uniform(-500, 500))
                   for _ in range(n)]
            loop = np.array(pts + pts[:1])  # closed tour, home both ends
            d, t = path_metrics(loop)
            assert d > 0.0
            assert -1e-12 <= t <= 180.0 * (n - 1) + 1e-9

            cost = lam * d + gam * t
            assert cost == pytest.approx(
                oracles.polyline_cost(pts + pts[:1], lam, gam), rel=1e-9)

            dr, tr = path_metrics(loop[::-1])
            assert dr == pytest.approx(d, rel=1e-9)
            assert tr == pytest.approx(t, rel=1e-9, abs=1e-9)

            dx, dy = rng.uniform(-9e3, 9e3), rng.uniform(-9e3, 9e3)
            d2, t2 = path_metrics(loop + np.array([dx, dy]))
            assert d2 == pytest.approx(d, rel=1e-9)
            assert t2 == pytest.approx(t, rel=1e-9, abs=1e-9)

            phi = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)],
                            [math.sin(phi), math.cos(phi)]])
            d3, t3 = path_metrics(loop @ rot.T)
            assert d3 == pytest.approx(d, rel=1e-9)
            assert t3 == pytest.approx(t, rel=1e-9, abs=1e-9)

            # scaling the farm scales the distance term only
            s = rng.uniform(0.1, 10.0)
            d4, t4 = path_metrics(loop * s)
            assert lam * d4 + gam * t4 == pytest.approx(
                lam * s * d + gam * t, rel=1e-9)

        # stored tour cost agrees with recomputation from raw coordinates
        farm = load_map({"perimeter": {"min": [0, 0], "max": [70, 40]},
                         "obstacles": [], "stations": [[1.0, 1.0]],
                         "clearance_m": 0.5, "grid_spacing_m": 30.0})
        wp = generate_waypoints(farm)
        g = build_graph(farm, wp, 0)
        coords = [(p.x, p.y) for p in wp.points]
        home = (farm.stations[0].x, farm.stations[0].y)
        for _ in range(100):
            perm = rng.sample(range(len(coords)), len(coords))
            tour = tour_cost(g, MODEL, (g.home, *perm, g.home))
            assert tour.cost_kj == pytest.approx(
                lam * tour.total_distance_m + gam * tour.total_turn_deg,
                rel=1e-12)
            want = oracles.polyline_cost(
                [home] + [coords[k] for k in perm] + [home], lam, gam)
            assert tour.cost_kj == pytest.approx(want, rel=1e-9)


def test_05_clearance_and_turn_against_oracles():
    with criterion(5, "clearance and turn angle match reference formulas"):
        rng = random.Random(5)
        for _ in range(1000):
            ax, ay = rng.uniform(0, 300), rng.uniform(0, 200)
            bx, by = rng.uniform(0, 300), rng.uniform(0, 200)
            leg = (Point2D(ax, ay), Point2D(bx, by))
            if rng.random() < 0.5:
                cx, cy, r = rng.uniform(0, 300), rng.uniform(0, 200), rng.uniform(1, 40)
                got = min_clearance(*leg, Circle(Point2D(cx, cy), r))
                want = oracles.seg_circle_clearance(ax, ay, bx, by, cx, cy, r)
            else:
                x0, y0 = rng.uniform(0, 260), rng.uniform(0, 160)
                x1, y1 = x0 + rng.uniform(2, 60), y0 + rng.uniform(2, 60)
                got = min_clearance(*leg, Rect(Point2D(x0, y0), Point2D(x1, y1)))
                want = oracles.seg_rect_clearance(ax, ay, bx, by, x0, y0, x1, y1)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

        for _ in range(10000):
            a = Point2D(rng.uniform(-50, 50), rng.uniform(-50, 50))
            b = Point2D(rng.uniform(-50, 50), rng.uniform(-50, 50))
            c = Point2D(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if a == b or b == c:
                continue
            ang = turn_angle_deg(a, b, c)
            assert 0.0 <= ang <= 180.0
            assert turn_angle_deg(c, b, a) == ang  # exact by symmetry

            ahead = Point2D(b.x + 0.75 * (b.x - a.x), b.y + 0.75 * (b.y - a.y))
            assert turn_angle_deg(a, b, ahead) == pytest.approx(0.0, abs=1e-9)
            back = Point2D(b.x - 0.5 * (b.x - a.x), b.y - 0.5 * (b.y - a.y))
            assert turn_angle_deg(a, b, back) == pytest.approx(180.0, abs=1e-9)

            # invariant under translation + rotation + uniform scaling
            phi = rng.uniform(0.0, 2.0 * math.pi)
            s = rng.uniform(0.1, 10.0)
            cs, sn = s * math.cos(phi), s * math.sin(phi)
            tx, ty = rng.uniform(-100, 100), rng.uniform(-100, 100)
            xf = [Point2D(cs * p.x - sn * p.y + tx, sn * p.x + cs * p.y + ty)
                  for p in (a, b, c)]
            assert turn_angle_deg(*xf) == pytest.approx(ang, abs=1e-8)


def test_06_edge_pruning_sound_and_complete():
    """Kept edges must truly clear every obstacle; pruned pairs must have a
    blocking obstacle to show for it."""
    with criterion(6, "graph pruning sound and complete vs sampling oracle"):
        farms = []
        seed = 0
        while len(farms) < 4:
            rng = random.Random(600 + seed)
            seed += 1
            w, h = 220.0, 160.0
            obstacles = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.5:
                    obstacles.append({
                        "type": "circle",
                        "center": [rng.uniform(30, w - 30), rng.uniform(30, h - 30)],
                        "radius": rng.uniform(5, 14)})
                else:
                    x0, y0 = rng.uniform(20, w - 70), rng.uniform(20, h - 70)
                    obstacles.append({
                        "type": "rect", "min": [x0, y0],
                        "max": [x0 + rng.uniform(10, 45), y0 + rng.uniform(10, 45)]})
            doc = {"perimeter": {"min": [0, 0], "max": [w, h]},
                   "obstacles": obstacles,
                   "stations": [[rng.uniform(5, w - 5), rng.uniform(5, h - 5)]],
                   "clearance_m": 8.0, "grid_spacing_m": 40.0}
            try:
                farm = load_map(doc)
                wp = generate_waypoints(farm)
                g = build_graph(farm, wp, 0)
            except (MapSchemaError, DisconnectedGraphError):
                continue
            farms.append((farm, wp, g))

        def oracle_min(farm, p, q):
            out = math.inf
            for ob in farm.obstacles:
                if isinstance(ob, Circle):
                    c = oracles.seg_circle_clearance(
                        p[0], p[1], q[0], q[1], ob.center.x, ob.center.y,
                        ob.radius)
                else:
                    c = oracles.seg_rect_clearance(
                        p[0], p[1], q[0], q[1], ob.min_corner.x, ob.min_corner.y,
                        ob.max_corner.x, ob.max_corner.y)
                out = min(out, c)
            return out

        pruned_total = 0
        for farm, wp, g in farms:
            for i in range(g.n_nodes):
                for j in range(i + 1, g.n_nodes):
                    p, q = g.xy[i], g.xy[j]
                    if p[0] == q[0] and p[1] == q[1]:
                        assert not g.adj[i, j]
                        continue
                    lo = oracle_min(farm, p, q)
                    if g.adj[i, j]:
                        assert lo >= farm.clearance_m - 1e-6, (
                            f"kept edge {i}-{j} clears only {lo:.8f}")
                    else:
                        pruned_total += 1
                        assert lo < farm.clearance_m + 1e-6, (
                            f"pruned edge {i}-{j} clears {lo:.8f}")
        assert pruned_total > 0  # the maps actually exercised pruning


def test_07_benchmark_determinism(tmp_path):
    """Two identical bench invocations must agree on everything but wall
    time: trial records, summary and rendered best plans."""
    with criterion(7, "benchmark reruns identical apart from wall time"):
        src = resources.files("farmpatrol").joinpath("data/reference_farm.json")
        with resources.as_file(src) as p:
            dirs = []
            for name in ("a", "b"):
                d = tmp_path / name
                args = ["bench", str(p), "--trials", "3", "--base-seed", "7",
                        "--iterations", "80", "--out-dir", str(d)]
                assert cli_main(args) == 0
                dirs.append(d)
            da, db = dirs

        def masked(path):
            out = []
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                assert rec.pop("wall_time_ms") > 0.0
                out.append(rec)
            return out

        assert masked(da / "trials.jsonl") == masked(db / "trials.jsonl")
        assert (da / "summary.json").read_bytes() == (db / "summary.json").read_bytes()
        svgs_a = sorted(f.name for f in da.glob("best_*.svg"))
        svgs_b = sorted(f.name for f in db.glob("best_*.svg"))
        assert svgs_a and svgs_a == svgs_b
        for name in svgs_a:
            assert (da / name).read_bytes() == (db / name).read_bytes()


def test_08_trail_bounds_and_best_cost_monotonicity():
    with criterion(8, "MMAS trail bounds hold; best cost never regresses"):
        farm = reference_farm()
        wp = generate_waypoints(farm)
        g = build_graph(farm, wp, 0)

        snaps = []
        run = solve(g, MODEL, AcoParams(variant="MMAS", n_iterations=80, seed=3),
                    trace=lambda it, tau, bounds, ants: snaps.append((tau, bounds)))
        assert len(snaps) == 80
        for tau, (tau_min, tau_max) in snaps:
            assert tau_min > 0.0 and tau_max >= tau_min
            assert np.all(tau >= tau_min - 1e-12)
            assert np.all(tau <= tau_max + 1e-12)

        for variant, seed in (("AS", 11), ("MMAS", 3)):
            r = solve(g, MODEL, AcoParams(variant=variant, n_iterations=80,
                                          seed=seed))
            hist = r.best_cost_history
            assert len(hist) == 80
            finite = [c for c in hist if math.isfinite(c)]
            assert finite, f"{variant} never found a valid tour"
            assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
            assert r.best_tour.is_valid and hist[-1] == r.best_tour.cost_kj


def test_09_energy_defaults_and_heuristic_value():
    with criterion(9, "energy defaults and worked heuristic example"):
        m = EnergyModel()
        assert m.lambda_kj_per_m == 0.1164
        assert m.gamma_kj_per_deg == 0.0173
        assert heuristic(m, 38.0, 90.0) == pytest.approx(0.16722, abs=1e-5)
        assert heuristic(m, 38.0) == pytest.approx(
            1.0 / (0.1164 * 38.0), rel=1e-12)
