import hashlib
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import oracles
from farmpatrol import aco
from farmpatrol.aco import (
    AcoParams, nearest_neighbour_cost, solve,
)
from farmpatrol.energy import EnergyModel, tour_cost
from farmpatrol.fleet import plan_fleet
from farmpatrol.geometry import Point2D
from farmpatrol.routegraph import RouteGraph, build_graph
from farmpatrol.world import FarmMap, generate_waypoints, reference_farm

MODEL = EnergyModel()


def graph_from(waypoints_xy, home_xy, edges=None):
    """Hand-built graph: waypoints in order, home last. edges=None means
    complete; otherwise an iterable of node pairs."""
    pts = list(waypoints_xy) + [home_xy]
    n = len(pts)
    xy = np.array(pts, dtype=float)
    adj = np.zeros((n, n), dtype=bool)
    if edges is None:
        adj[:] = True
        np.fill_diagonal(adj, False)
    else:
        for a, b in edges:
            adj[a, b] = adj[b, a] = True
    return RouteGraph(xy, adj, tuple(range(n - 1)))


def open_map(width=100, height=100, station=(-10, 0), spacing=38.0):
    m = FarmMap(Point2D(0, 0), Point2D(width, height), (),
                (Point2D(*station),), 10.0, spacing)
    return m, generate_waypoints(m)


def random_graph(n, seed, keep=0.5):
    """n seeded random nodes (home last) with each pair kept as an edge
    with probability keep, plus every home edge."""
    rng = random.Random(seed)
    pts = [(rng.uniform(0, 300), rng.uniform(0, 200)) for _ in range(n)]
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if b == n - 1 or rng.random() < keep]
    return graph_from(pts[:-1], pts[-1], edges)


def star_graph():
    # home sees three leaves; leaves do not see each other
    return graph_from([(20, 0), (0, 20), (-20, 0)], (0, 0),
                      edges=[(0, 3), (1, 3), (2, 3)])


def test_params_validation():
    with pytest.raises(ValueError):
        AcoParams(variant="ACS")
    with pytest.raises(ValueError):
        AcoParams(rho=1.0)
    with pytest.raises(ValueError):
        AcoParams(n_iterations=0)
    with pytest.raises(ValueError):
        AcoParams(beta=-1)
    p = AcoParams(variant="MMAS", rho=0.2)
    assert p.rho == 0.2


def construct_tours(g, tau, seed=0, m=1, alpha=1.0, beta=3.0, draw=None):
    """Run m ants through _construct_batch the way solve does: one _Space,
    tau^alpha and the block-drawn uniforms of random.Random(seed) (or the
    given draw). Returns each ant's (nodes, closed), in ant order."""
    space = aco._Space(g, MODEL, beta)
    tau_pow = tau if alpha == 1.0 else np.power(tau, alpha)
    if draw is None:
        draw = aco._Uniforms(random.Random(seed)).take
    paths, lengths, closed = aco._construct_batch(space, m, tau_pow, draw)
    return [(tuple(paths[k, :lengths[k]].tolist()), bool(closed[k])) for k in range(m)]


def test_construct_tour_completes_on_complete_graph():
    g = graph_from([(0, 0), (38, 0), (38, 38), (0, 38)], (-10, -10))
    tau = np.ones((g.n_nodes, g.n_nodes))
    ((nodes, closed),) = construct_tours(g, tau, seed=1)
    assert closed and tour_cost(g, MODEL, nodes).is_valid
    assert nodes[0] == nodes[-1] == g.home
    assert sorted(nodes[1:-1]) == [0, 1, 2, 3]


def test_construct_tour_first_hop_uniform_when_blind():
    # beta = 0 and a uniform trail matrix: the three first hops are equally likely
    g = graph_from([(30, 0), (0, 30), (-30, 0)], (0, 0))
    tau = np.ones((4, 4))
    counts = Counter(nodes[1] for nodes, _ in
                     construct_tours(g, tau, seed=7, m=10_000, beta=0.0))
    for leaf in (0, 1, 2):
        assert abs(counts[leaf] / 10_000 - 1 / 3) < 0.02


def test_construct_tour_follows_trail_bias():
    g = graph_from([(30, 0), (0, 30), (-30, 0)], (0, 0))
    tau = np.full((4, 4), 1e-6)
    tau[3, 1] = tau[1, 3] = 1000.0
    assert all(nodes[1] == 1 for nodes, _ in construct_tours(g, tau, m=100, beta=0.0))


def test_construct_tour_strands_on_star():
    g = star_graph()
    tau = np.ones((4, 4))
    ((nodes, closed),) = construct_tours(g, tau, seed=3)
    assert not closed and not tour_cost(g, MODEL, nodes).is_valid
    assert len(nodes) == 2  # home plus the one reachable leaf
    assert nodes[0] == g.home


def test_construct_tour_draws_one_random_per_walking_ant():
    # draw is called once per step, for the ants still walking: an ant that
    # strands on a step draws nothing from then on
    g = random_graph(25, 5)
    tau = np.ones((g.n_nodes, g.n_nodes))
    take = aco._Uniforms(random.Random(8)).take
    calls = []

    def draw(k):
        calls.append(k)
        return take(k)

    ants = construct_tours(g, tau, m=12, draw=draw)
    assert ants == construct_tours(g, tau, seed=8, m=12)  # recording changes nothing
    walked = np.array([len(nodes) for nodes, _ in ants])
    assert 0 < sum(closed for _, closed in ants) < 12  # some ants strand
    walking = [int((walked > step).sum()) for step in range(1, g.n_waypoints + 1)]
    assert calls == [k for k in walking if k > 0]


def test_uniform_blocks_equal_successive_random_calls():
    block = aco._DRAW_BLOCK
    sizes = [1, 2, 5, 37, 50, block - 1, block + 1, 37]  # blocks run out mid-take
    for seed in range(200):
        uniforms = aco._Uniforms(random.Random(seed))
        got = [uniforms.take(k) for k in sizes]
        assert [len(part) for part in got] == sizes
        rng = random.Random(seed)
        want = [rng.random() for _ in range(sum(sizes))]
        assert np.concatenate(got).tolist() == want


def test_solve_on_star_reports_invalid():
    run = solve(star_graph(), MODEL, AcoParams(n_ants=5, n_iterations=10, seed=1))
    assert not run.best_tour.is_valid
    assert not run.best_tour.is_valid
    assert all(math.isinf(c) for c in run.best_cost_history)
    assert len(run.best_tour.nodes) == 2  # best partial walk kept
    assert run.best_iteration == 0


def test_solve_deterministic_per_seed():
    m, w = open_map()
    g = build_graph(m, w, 0)
    p = AcoParams(n_ants=8, n_iterations=40, seed=11)
    r1 = solve(g, MODEL, p)
    r2 = solve(g, MODEL, p)
    assert r1.best_tour == r2.best_tour
    assert r1.best_cost_history == r2.best_cost_history
    r3 = solve(g, MODEL, AcoParams(n_ants=8, n_iterations=40, seed=12))
    assert r3.best_cost_history != r1.best_cost_history


def test_distinct_seeds_explore_distinct_tours_without_trails():
    g = graph_from([(30, 0), (0, 30), (-30, 0), (0, -30)], (5, 5))
    tau = np.ones((5, 5))
    tours = {construct_tours(g, tau, seed=s, alpha=0.0)[0][0] for s in range(10)}
    assert len(tours) >= 2


def test_as_matches_bruteforce_on_five_waypoints():
    coords = [(0, 0), (38, 0), (76, 38), (38, 76), (0, 38)]
    home = (-10, -10)
    g = graph_from(coords, home)
    run = solve(g, MODEL, AcoParams(n_ants=10, n_iterations=150, seed=5))
    assert run.best_tour.is_valid
    want_cost, _ = oracles.best_closed_tour(coords, home, MODEL.lambda_kj_per_m,
                                            MODEL.gamma_kj_per_deg)
    assert run.best_tour.cost_kj == pytest.approx(want_cost, rel=1e-9)


def test_best_cost_history_monotone():
    m, w = open_map()
    g = build_graph(m, w, 0)
    for variant in ("AS", "MMAS"):
        run = solve(g, MODEL, AcoParams(variant=variant, n_ants=6,
                                        n_iterations=60, seed=2))
        h = run.best_cost_history
        assert len(h) == 60
        assert all(b <= a for a, b in zip(h, h[1:]))
        assert run.best_tour.cost_kj == h[-1]


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
def test_best_iteration_found_the_best_tour(variant):
    g = random_graph(25, 5, keep=0.4)
    run = solve(g, MODEL, AcoParams(variant=variant, n_ants=12, n_iterations=30, seed=8))
    h = run.best_cost_history
    assert run.best_tour.is_valid and math.isinf(h[0])  # the first tour comes after iteration 1
    assert 1 < run.best_iteration <= len(h)
    assert h[run.best_iteration - 1] == run.best_tour.cost_kj
    assert h[run.best_iteration - 2] > run.best_tour.cost_kj


# (solver, seed) -> digest of the single-drone and dual-drone plans, each
# drone's best tour nodes and the iteration that found it, 60 iterations.
# Costs are left out: their last bits may differ on another numpy build or
# platform, and other tests check them against tour_cost in one process.
GOLDEN_TOURS = {
    ("AS", 42): ("d7656206ee83f755", "4760ab2bce2d59f5"),
    ("AS", 43): ("4d73887de4ad142a", "0c517d8191ff28d3"),
    ("MMAS", 42): ("673a90db587a80bd", "0c097a7e809f8c9a"),
    ("MMAS", 43): ("fb751b2848585225", "1d734cb0478ec8ec"),
}


@pytest.mark.parametrize("solver,seed", sorted(GOLDEN_TOURS))
def test_golden_tours_on_the_reference_farm(solver, seed):
    """Seeds map to the same tours across versions, not just valid ones."""
    farm = reference_farm()
    w = generate_waypoints(farm)
    got = []
    for n_drones in (1, 2):
        plan = plan_fleet(farm, w, n_drones, solver,
                          params=AcoParams(seed=seed, n_iterations=60))
        h = hashlib.sha256()
        for drone in plan.drones:
            h.update(repr((drone.run.best_tour.nodes, drone.run.best_iteration)).encode())
        got.append(h.hexdigest()[:16])
    assert tuple(got) == GOLDEN_TOURS[solver, seed]


def test_as_deposit_bookkeeping():
    g = graph_from([(0, 0), (40, 0), (40, 40), (0, 40)], (-10, 20))
    q = nearest_neighbour_cost(g, MODEL)
    rho = 0.5
    params = AcoParams(n_ants=6, n_iterations=4, seed=9, rho=rho)
    snaps = []
    solve(g, MODEL, params, trace=lambda it, tau, bounds, ants: snaps.append((tau, ants)))
    prev_sum = (params.n_ants / q) * g.n_nodes ** 2  # uniform initial trails
    for tau, ants in snaps:
        deposited = sum(2 * (len(nodes) - 1) * q / cost
                        for nodes, cost, complete in ants if complete)
        assert tau.sum() == pytest.approx(prev_sum * (1 - rho) + deposited, rel=1e-9)
        assert any(complete for _, _, complete in ants)
        prev_sum = tau.sum()


def test_as_no_deposit_from_invalid_ants():
    g = star_graph()
    rho = 0.5
    snaps = []
    solve(g, MODEL, AcoParams(n_ants=4, n_iterations=3, seed=0, rho=rho),
          trace=lambda it, tau, bounds, ants: snaps.append(tau))
    tau0 = np.full((4, 4), 4 / nearest_neighbour_cost(g, MODEL))
    expect = tau0 * (1 - rho)
    for tau in snaps:
        assert np.array_equal(tau, expect)
        expect = expect * (1 - rho)


def test_mmas_bounds_and_best_only_deposit():
    m, w = open_map()
    g = build_graph(m, w, 0)
    rho = 0.05
    traces = []
    run = solve(g, MODEL, AcoParams(variant="MMAS", n_ants=8, n_iterations=50,
                                    seed=4, rho=rho),
                trace=lambda it, tau, bounds, ants: traces.append((tau, bounds)))
    assert run.best_tour.is_valid
    prev = None
    for tau, (tau_min, tau_max) in traces:
        assert np.all(tau >= tau_min - 1e-12)
        assert np.all(tau <= tau_max + 1e-12)
        if prev is not None:
            # nothing outside the best tour may grow beyond evaporation + floor
            grew = tau > np.maximum(prev * (1 - rho), tau_min) + 1e-12
            assert grew.sum() <= 2 * (g.n_waypoints + 1)
        prev = tau


def test_mmas_bound_formula():
    m, w = open_map()
    g = build_graph(m, w, 0)
    rho = 0.05
    last = {}

    def capture(it, tau, bounds, ants):
        last["bounds"] = bounds

    run = solve(g, MODEL, AcoParams(variant="MMAS", n_ants=8, n_iterations=40,
                                    seed=6, rho=rho), trace=capture)
    tau_min, tau_max = last["bounds"]
    assert tau_max == pytest.approx(1.0 / (rho * run.best_tour.cost_kj), rel=1e-12)
    assert tau_min == pytest.approx(tau_max / (2 * g.n_nodes), rel=1e-12)


def arrival_pairs(g):
    """Every (h, i) an ant can arrive by: the edges, plus (-1, home)."""
    h, i = np.nonzero(g.adj)
    return [(-1, g.home)] + list(zip(h.tolist(), i.tolist()))


def stored_pairs(space):
    h, i = np.nonzero(space.row_of >= 0)
    h[h == space.n] = -1
    return h, i, space.row_of[h, i]


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.5, 3.0])
def test_stored_heading_rows_equal_computed_rows(beta):
    g = random_graph(40, 6)
    space = aco._Space(g, MODEL, beta)
    h, i, rows = stored_pairs(space)
    assert sorted(zip(h.tolist(), i.tolist())) == sorted(arrival_pairs(g))  # all fit
    assert np.array_equal(np.sort(rows), np.arange(space.table.shape[0] - 1))
    # the step reads the stored rows, bit for bit the formula's
    assert np.array_equal(space.table[rows].view(np.uint64),
                          space.computed_rows(h, i).view(np.uint64))
    assert np.array_equal(space.eta_pow_rows(h, i).view(np.uint64),
                          space.computed_rows(h, i).view(np.uint64))


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.5, 3.0])
def test_solve_with_a_tiny_row_table_is_unchanged(monkeypatch, beta):
    g = random_graph(30, 7, keep=0.6)
    params = AcoParams(n_ants=10, n_iterations=25, seed=13, beta=beta)
    full = solve(g, MODEL, params)
    budget = 8 * g.n_nodes * 9  # 8 stored rows and the scratch row
    monkeypatch.setattr(aco, "_ROW_TABLE_BYTES", budget)
    space = aco._Space(g, MODEL, beta)
    assert (space.row_of >= 0).sum() == 8 < len(arrival_pairs(g)) // 40
    h, i = np.array(arrival_pairs(g)).T  # misses computed per step, bit for bit
    assert np.array_equal(space.eta_pow_rows(h, i).view(np.uint64),
                          space.computed_rows(h, i).view(np.uint64))
    tiny = solve(g, MODEL, params)
    assert tiny.best_tour == full.best_tour
    assert tiny.best_cost_history == full.best_cost_history
    assert tiny.best_iteration == full.best_iteration


@pytest.mark.parametrize("n", [80, 160, 400])
def test_row_table_build_stays_within_its_budget(n):
    g = random_graph(n, 3)
    space = aco._Space(g, MODEL, 3.0)
    budget = aco._ROW_TABLE_BYTES
    tracemalloc.start()  # rebuild the space's table, traced
    try:
        row_of, table = space.heading_rows(budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes <= budget
    assert peak < 1.5 * table.nbytes
    assert np.array_equal(row_of, space.row_of)
    assert np.array_equal(table[:-1], space.table[:-1])  # the last row is scratch
    h, i, rows = stored_pairs(space)
    if table.shape[0] - 1 < len(arrival_pairs(g)):
        assert table.nbytes > budget - 8 * n  # the budget is spent
    # each node keeps a nearest-first prefix of its predecessors
    for node in range(n):
        preds = np.nonzero(g.adj[:, node])[0]
        by_leg = preds[np.argsort(space.dist[preds, node], kind="stable")]
        kept = h[i == node]
        kept = kept[kept >= 0]
        assert sorted(kept.tolist()) == sorted(by_leg[:kept.size].tolist())
    assert (-1, g.home) in zip(h.tolist(), i.tolist())


def test_pow_eta_at_beta_one_is_the_reciprocal():
    rng = np.random.default_rng(0)
    den = np.concatenate([rng.uniform(1e-3, 1e3, 5000), 10.0 ** rng.uniform(-300, 300, 5000),
                          [5e-324, 2.2e-308, 1.0, np.inf, np.inf]])
    want = np.zeros_like(den)
    finite = np.isfinite(den)
    with np.errstate(over="ignore"):  # 1 / 5e-324 is inf on both sides
        want[finite] = 1.0 / den[finite]
        got = aco._pow_eta(den, 1.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.all(got[~finite] == 0.0)


def test_nearest_neighbour_cost_single_waypoint():
    g = graph_from([(10, 0)], (0, 0))
    want = 2 * MODEL.lambda_kj_per_m * 10 + MODEL.gamma_kj_per_deg * 180
    assert nearest_neighbour_cost(g, MODEL) == pytest.approx(want, rel=1e-12)


def test_default_ant_count_capped():
    m, w = open_map()
    g = build_graph(m, w, 0)
    counts = []
    solve(g, MODEL, AcoParams(n_iterations=1, seed=0),
          trace=lambda it, tau, bounds, ants: counts.append(len(ants)))
    assert counts == [9]  # one ant per waypoint on the 3x3 grid


def test_solver_requires_positive_lambda():
    g = star_graph()
    with pytest.raises(ValueError, match="positive distance"):
        solve(g, EnergyModel(0.0, 0.0173), AcoParams(n_iterations=1))


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
@pytest.mark.parametrize("model,scale", [
    (EnergyModel(1e308, 1e308), 10.0),    # every hop overflows: greedy reference costs 0
    (EnergyModel(1e306, 0.0173), 100.0),  # tours overflow: greedy reference costs inf
    (MODEL, 1e307),                       # coordinates overflow: greedy reference is nan
])
def test_solve_rejects_an_overflowing_energy_scale(variant, model, scale):
    pts = [(scale * x, scale * y) for x, y in [(0, 0), (3, 0), (3, 3), (0, 3), (-1, -1)]]
    g = graph_from(pts[:-1], pts[-1])
    with pytest.raises(ValueError, match="energy scale"):
        solve(g, model, AcoParams(variant=variant, n_ants=3, n_iterations=2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", ["AS", "MMAS"])
@pytest.mark.parametrize("beta", [3.0, 1.0, 0.5])
def test_tiny_distance_coefficient_solves_without_a_warning(variant, beta):
    # eta = 1 / (lambda * d) overflows to inf, and inf times a visited
    # node's 0 is nan inside the step
    farm = reference_farm()
    g = build_graph(farm, generate_waypoints(farm), 0)
    model = EnergyModel(1e-320, 0.0173)
    run = solve(g, model, AcoParams(variant=variant, n_iterations=3, beta=beta))
    assert run.best_tour.is_valid
    assert run.best_tour == tour_cost(g, model, run.best_tour.nodes)


@pytest.mark.parametrize("n,seed", [(3, 0), (7, 1), (40, 2), (155, 3)])
def test_nearest_neighbour_cost_matches_scalar_greedy_oracle(n, seed):
    g = random_graph(n, seed)
    assert not g.adj[~np.eye(n, dtype=bool)].all()  # some edges pruned
    want = oracles.greedy_tour_mean_cost(g.xy.tolist(), MODEL.lambda_kj_per_m,
                                         MODEL.gamma_kj_per_deg)
    assert nearest_neighbour_cost(g, MODEL) == pytest.approx(want, rel=1e-12)


def test_solve_reuses_its_space_for_the_greedy_reference(monkeypatch):
    g = random_graph(30, 4)
    want = nearest_neighbour_cost(g, MODEL)
    calls = []

    def spy(*args):
        calls.append(args)
        return nearest_neighbour_cost(*args)

    monkeypatch.setattr(aco, "nearest_neighbour_cost", spy)
    solve(g, MODEL, AcoParams(n_ants=4, n_iterations=1))
    ((_, _, space),) = calls
    assert space.table.shape[0] > 1  # the solve's own space, table and all
    assert nearest_neighbour_cost(g, MODEL, space) == want


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
def test_traced_ant_costs_equal_tour_cost(variant):
    g = random_graph(25, 5, keep=0.4)
    params = AcoParams(variant=variant, n_ants=12, n_iterations=30, seed=8)
    seen = {"complete": 0, "incomplete": 0}
    running_best = [math.inf]  # min over all complete ants so far, per iteration

    def check(it, tau, bounds, ants):
        assert len(ants) == params.n_ants
        running_best.append(running_best[-1])
        for nodes, cost, complete in ants:
            if complete:
                assert cost == tour_cost(g, MODEL, nodes).cost_kj
                running_best[-1] = min(running_best[-1], cost)
                seen["complete"] += 1
            else:
                seen["incomplete"] += 1
                want = math.inf if len(nodes) < 2 else oracles.polyline_cost(
                    g.xy[list(nodes)].tolist(), MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg)
                assert cost == pytest.approx(want, rel=1e-12)

    traced = solve(g, MODEL, params, trace=check)
    assert seen["complete"] and seen["incomplete"]  # both kinds exercised
    assert traced.best_cost_history == tuple(running_best[1:])
    plain = solve(g, MODEL, params)
    assert traced.best_cost_history == plain.best_cost_history
    assert traced.best_tour == plain.best_tour


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
def test_solve_with_the_station_on_a_waypoint(variant):
    # the station coincides with the grid waypoint at (20, 20): no greedy
    # walk may close on that zero-length leg
    m = FarmMap(Point2D(0, 0), Point2D(60, 60), (), (Point2D(20, 20),), 0.0, 20.0)
    g = build_graph(m, generate_waypoints(m), 0)
    assert (g.dist[g.home, :g.home] == 0.0).sum() == 1
    want = oracles.greedy_tour_mean_cost(g.xy.tolist(), MODEL.lambda_kj_per_m,
                                         MODEL.gamma_kj_per_deg)
    assert nearest_neighbour_cost(g, MODEL) == pytest.approx(want, rel=1e-12)
    run = solve(g, MODEL, AcoParams(variant=variant, n_iterations=5))
    assert run.best_tour.is_valid
    assert run.best_tour == tour_cost(g, MODEL, run.best_tour.nodes)
