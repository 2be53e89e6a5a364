import hashlib
import importlib.util
import math
import random
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from farmpatrol import aco
from farmpatrol.aco import (
    AcoParams, nearest_neighbour_cost, solve,
)
from farmpatrol.energy import EnergyModel, heuristic, tour_cost
from farmpatrol.fleet import partition, plan_fleet
from farmpatrol.geometry import Point2D, turn_angle_deg
from farmpatrol.routegraph import RouteGraph, build_graph
from farmpatrol.world import FarmMap, generate_waypoints, load_map, reference_farm

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
    for seed in (np.int64(3), 1.5, True):  # random.Random would hash or reject these
        with pytest.raises(ValueError, match="seed"):
            AcoParams(seed=seed)
    for name in ("n_ants", "n_iterations"):  # range() would raise TypeError in solve
        for value in (2.5, True):  # bool is an int subclass, but no count
            with pytest.raises(ValueError, match=name):
                AcoParams(**{name: value})
    p = AcoParams(variant="MMAS", rho=0.2)
    assert p.rho == 0.2


def construct_tours(g, tau, seed=0, m=1, alpha=1.0, beta=3.0, draw=None, model=MODEL):
    """Run m ants through _construct_batch the way solve does: one _Space,
    tau^alpha and the block-drawn uniforms of random.Random(seed) (or the
    given draw). Returns each ant's (nodes, closed), in ant order."""
    space = aco._Space(g, model, beta)
    tau_pow = tau if alpha == 1.0 else np.power(tau, alpha)
    if draw is None:
        draw = aco._Uniforms(random.Random(seed)).take
    paths, lengths = aco._construct_batch(space, m, tau_pow, draw)
    closed = lengths == paths.shape[1]
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


@pytest.mark.parametrize("listed", [False, True])
def test_every_walk_keeps_the_walk_contract(monkeypatch, listed):
    # on both steps each walk starts at home, flies only edges and repeats no
    # node; it is closed exactly when it holds every waypoint and home at both
    # ends, a walk one short has no edge home, and any shorter walk ends at a
    # node with no unvisited clear neighbour, checked against g.adj alone
    tally = Counter()
    for n in (12, 20, 30):
        for keep in (0.3, 0.5, 0.7):
            for seed in range(10):
                g = random_graph(n, seed, keep)
                if seed % 2:  # home keeps its edges to every third waypoint only
                    adj = g.adj.copy()
                    adj[g.home, :-1] &= np.arange(n - 1) % 3 == 0
                    adj[:, g.home] = adj[g.home]
                    g = RouteGraph(g.xy, adj, g.waypoint_grid_ids)
                if listed:
                    monkeypatch.setattr(aco, "_ROW_TABLE_BYTES", budget_for(g, 10))
                assert aco._Space(g, MODEL, 3.0).listed == listed
                tau = np.ones((n, n))
                for nodes, closed in construct_tours(g, tau, seed=seed, m=15):
                    assert nodes[0] == g.home
                    assert all(g.adj[a, b] for a, b in zip(nodes, nodes[1:]))
                    inner = nodes[1:-1] if closed else nodes[1:]
                    assert len(set(inner)) == len(inner) and g.home not in inner
                    assert closed == (len(nodes) == g.n_waypoints + 2)
                    if closed:
                        assert nodes[-1] == g.home
                        tally["closed"] += 1
                    elif len(nodes) == g.n_waypoints + 1:
                        assert not g.adj[nodes[-1], g.home]
                        tally["no edge home"] += 1
                    else:
                        assert not any(g.adj[nodes[-1], c] for c in range(g.n_waypoints)
                                       if c not in nodes)
                        tally["stranded"] += 1
    assert len(tally) == 3 and sum(tally.values()) == 90 * 15  # every case is reached


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
    g = star_graph()
    run = solve(g, MODEL, AcoParams(n_ants=5, n_iterations=10, seed=1))
    assert not run.best_tour.is_valid
    assert run.best_tour.nodes[0] == g.home  # the kept walk starts at home
    assert all(math.isinf(c) for c in run.best_cost_history)
    assert len(run.best_tour.nodes) == 2  # best partial walk kept
    assert run.best_iteration == 0


def traced_solve(g, params, model=MODEL):
    """solve with a trace; returns the run and every trace call's payload,
    trails as bytes so payloads compare with ==."""
    payloads = []
    run = solve(g, model, params, trace=lambda it, tau, bounds, ants: payloads.append(
        (it, tau.tobytes(), bounds, ants)))
    return run, payloads


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
def test_with_no_closed_tour_the_result_is_the_cheapest_walk(variant):
    # no tour can close: ants strand at 0 -> 1 -> 2, at 0 -> 4 or at 3, and
    # the cheapest of those walks is neither the first nor the longest
    g = graph_from([(10, 0), (20, 0), (30, 0), (-40, 0), (10, 2)], (0, 0),
                   edges=[(5, 0), (5, 3), (0, 1), (1, 2), (0, 4)])
    params = AcoParams(variant=variant, n_ants=6, n_iterations=10, seed=3)
    run, payloads = traced_solve(g, params)
    walks = [(cost, nodes) for *_, ants in payloads for nodes, cost, complete in ants]
    assert {len(nodes) for _, nodes in walks} == {2, 3, 4}
    cost, nodes = min(walks, key=lambda walk: walk[0])
    assert run.best_tour.nodes == nodes != walks[0][1]
    assert run.best_tour.cost_kj == cost and not run.best_tour.is_valid
    assert run.best_iteration == 0
    assert all(math.isinf(c) for c in run.best_cost_history)
    assert solve(g, MODEL, params) == run


def test_solve_deterministic_per_seed():
    # on this 9-waypoint map seeds 11 and 12 polish to the same optimum at
    # iteration 1, so seed sensitivity shows in the ants' walks
    m, w = open_map()
    g = build_graph(m, w, 0)
    p = AcoParams(n_ants=8, n_iterations=40, seed=11)
    r1, t1 = traced_solve(g, p)
    r2, t2 = traced_solve(g, p)
    assert r1 == r2 and t1 == t2
    _, t3 = traced_solve(g, AcoParams(n_ants=8, n_iterations=40, seed=12))
    assert [ants for *_, ants in t3] != [ants for *_, ants in t1]


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
# drone's best tour nodes and the iteration that found it (60 when the
# last iteration's 2-opt polish did), 60 iterations.
# Costs are left out: their last bits may differ on another numpy build or
# platform, and other tests check them against tour_cost in one process.
GOLDEN_TOURS = {
    ("AS", 42): ("8cc55e0890d38e49", "5b59fb81df9efbb7"),
    ("AS", 43): ("e72372694464e67b", "a5f06d951b5a020c"),
    ("MMAS", 42): ("8be91d98ce5ae5f6", "a3d45b8a9626855a"),
    ("MMAS", 43): ("961ed5035170d67d", "56eeace3474b03e5"),
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


# (graph, solver) -> digests of every ant's walk in every iteration, and of
# those walks with the best tour nodes and the iteration that found it, on
# seeded graphs past the row budget, so on the candidate-list step: 12 ants,
# 10 iterations, seed 5. Their ants take off-list hops (250-310 a run),
# strand (100-120 of 120 walks) and close tours. The walk digest stands
# alone because the 2-opt polish, which changes the result, never changes a
# walk.
GOLDEN_CANDIDATE_TOURS = {
    ((50, 4, 0.4), "AS"): ("e66e981b0ba50ce2", "c3ee436edc043bc4"),
    ((50, 4, 0.4), "MMAS"): ("76abd23803fe2524", "5d881c981e972bfc"),
    ((60, 2, 0.3), "AS"): ("2b3584fdbe7b436f", "480ac7984506d08f"),
    ((60, 2, 0.3), "MMAS"): ("6f7ef78f5679b9c6", "cdeb9cf7b0eccd12"),
}


def walk_digests(g, solver):
    """(digest of every walk, digest with the result), the run and its number
    of closed walks, for the golden walk tests."""
    run, payloads = traced_solve(g, AcoParams(variant=solver, n_ants=12, n_iterations=10,
                                              seed=5))
    walks = [[nodes for nodes, _, _ in ants] for *_, ants in payloads]
    got = tuple(hashlib.sha256(repr(x).encode()).hexdigest()[:16]
                for x in (walks, (walks, run.best_tour.nodes, run.best_iteration)))
    return got, run, sum(complete for *_, ants in payloads for *_, complete in ants)


@pytest.mark.parametrize("graph,solver", sorted(GOLDEN_CANDIDATE_TOURS))
def test_golden_tours_on_the_candidate_step(monkeypatch, graph, solver):
    """The candidate-list step maps seeds to the same walks across versions."""
    g = random_graph(*graph)
    monkeypatch.setattr(aco, "_ROW_TABLE_BYTES", budget_for(g, 50))
    got, run, _ = walk_digests(g, solver)
    assert run.best_tour.is_valid
    assert got == GOLDEN_CANDIDATE_TOURS[graph, solver]


# (graph, solver) -> the same digests as GOLDEN_CANDIDATE_TOURS, and the
# number of closed walks of 120, on the same graphs within the row budget, so
# on the full-row step. No walk closes on the 60-node graph, so its result is
# the fallback, the cheapest stranded walk, for AS and MMAS alike.
GOLDEN_FULL_ROW_WALKS = {
    ((50, 4, 0.4), "AS"): ("a78138342da20d20", "54af324e9021b2c9", 26),
    ((50, 4, 0.4), "MMAS"): ("9d875af13f0c9c1d", "10ea3381408fbdb3", 13),
    ((60, 2, 0.3), "AS"): ("533700b898af3067", "cfd249408a45d4cf", 0),
    ((60, 2, 0.3), "MMAS"): ("533700b898af3067", "cfd249408a45d4cf", 0),
}


@pytest.mark.parametrize("graph,solver", sorted(GOLDEN_FULL_ROW_WALKS))
def test_golden_walks_on_the_full_row_step(graph, solver):
    """The full-row step maps seeds to the same walks across versions."""
    g = random_graph(*graph)
    assert not aco._Space(g, MODEL, 3.0).listed
    got, run, closed = walk_digests(g, solver)
    assert run.best_tour.is_valid == (closed > 0)
    assert (*got, closed) == GOLDEN_FULL_ROW_WALKS[graph, solver]


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


def candidate_lists(g, k):
    """Each node's k nearest clear neighbours, home and zero-length legs left
    out, ties to the lower index, from a scan of the points."""
    lists = []
    for a in range(g.n_nodes):
        near = sorted((math.dist(g.xy[a], g.xy[b]), b) for b in range(g.n_waypoints)
                      if g.adj[a, b] and math.dist(g.xy[a], g.xy[b]) > 0)
        lists.append(sorted(b for _, b in near[:k]))
    return lists


def budget_for(g, rows):
    """A _ROW_TABLE_BYTES that holds `rows` candidate rows of g."""
    return 8 * min(aco._CANDIDATES, g.n_nodes) * rows


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.5, 3.0])
def test_stored_heading_rows_equal_computed_rows(beta):
    g = random_graph(40, 6)
    space = aco._Space(g, MODEL, beta)
    assert not space.listed
    h, i, rows = stored_pairs(space)
    assert sorted(zip(h.tolist(), i.tolist())) == sorted(arrival_pairs(g))  # all fit
    assert np.array_equal(np.sort(rows), np.arange(space.table.shape[0]))
    # the step reads the stored rows, bit for bit the formula's
    assert np.array_equal(space.table[rows].view(np.uint64),
                          space.computed_rows(h, i).view(np.uint64))
    assert np.array_equal(space.eta_pow_rows(h, i).view(np.uint64),
                          space.computed_rows(h, i).view(np.uint64))


@pytest.mark.parametrize("listed", [False, True])
@pytest.mark.parametrize("beta", [1.0, 2.5, 3.0])
def test_computed_rows_follow_the_scalar_heuristic(monkeypatch, beta, listed):
    # each row is heuristic(d, turn) ** beta over the options of i, scaled by
    # one constant factor (the power of two of the coefficients), and 0 at a
    # pruned option; full rows, or candidate rows past the budget
    g = random_graph(30, 7, keep=0.6)
    if listed:
        monkeypatch.setattr(aco, "_ROW_TABLE_BYTES", budget_for(g, 40))
    space = aco._Space(g, MODEL, beta)
    assert space.listed == listed
    pts = [Point2D(*p) for p in g.xy.tolist()]
    pairs = arrival_pairs(g)
    got = space.computed_rows(*np.array(pairs).T)
    for (h, i), row in zip(pairs, got):
        to = space.cand[i].tolist() if listed else range(g.n_nodes)
        want = np.array([heuristic(MODEL, math.dist(g.xy[i], g.xy[j]),
                                   0.0 if h < 0 else turn_angle_deg(pts[h], pts[i], pts[j])) ** beta
                         if g.adj[i, j] else 0.0 for j in to])
        assert np.all(row[want == 0.0] == 0.0)
        np.testing.assert_allclose(row / row.max(), want / want.max(), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.5, 3.0])
def test_candidate_rows_past_the_row_table_budget(monkeypatch, beta):
    # a graph whose full rows do not fit the budget uses candidate lists, and
    # its table holds the candidate rows of the 40 first arrival pairs
    g = random_graph(30, 7, keep=0.6)
    full = aco._Space(g, MODEL, beta)
    monkeypatch.setattr(aco, "_ROW_TABLE_BYTES", budget_for(g, 40))
    space = aco._Space(g, MODEL, beta)
    assert not full.listed and space.listed
    # the lists are built on every graph, whichever step the ants take
    assert full.cand.tolist() == space.cand.tolist() == candidate_lists(g, aco._CANDIDATES)
    h, i, rows = stored_pairs(space)
    assert np.array_equal(np.sort(rows), np.arange(40))
    listed = [(a, b) for a, b in zip(h.tolist(), i.tolist()) if a < 0 or b in space.cand[a]]
    assert len(listed) == 40  # the pairs reached by choosing a candidate come first
    # stored, computed per step and full rows at the candidates agree bit for bit
    h, i = np.array(arrival_pairs(g)).T
    want = space.computed_rows(h, i)
    assert np.array_equal(space.eta_pow_rows(h, i).view(np.uint64), want.view(np.uint64))
    full_at_candidates = np.take_along_axis(full.computed_rows(h, i), space.cand[i], axis=1)
    assert np.array_equal(want.view(np.uint64), full_at_candidates.view(np.uint64))
    # the same seed gives the same tours, walks and trails
    params = AcoParams(n_ants=10, n_iterations=25, seed=13, beta=beta)
    run, payloads = traced_solve(g, params)
    assert (run, payloads) == traced_solve(g, params)
    assert run.best_tour.is_valid and run.best_tour == tour_cost(g, MODEL, run.best_tour.nodes)


@pytest.mark.parametrize("variant,graph,seen_hop,model", [
    ("AS", (40, 8, 0.3), "nearest", MODEL),
    ("MMAS", (60, 9, 0.15), "nearest", MODEL),
    ("AS", (35, 10, 0.08), "stranded", MODEL),
    # lambda so far below gamma that the scaled lambda * d is 0 on every edge
    ("AS", (40, 8, 0.3), "nearest", EnergyModel(1e-320, 1e304)),
    # one step where an ant strands before another one hops, so the hop
    # follows its ant when the stranded row leaves the batch
    ("MMAS", (40, 8, 0.3), "hop after a strand", MODEL),
])
def test_ants_past_the_budget_hop_to_candidates_or_the_nearest_neighbour(monkeypatch, variant,
                                                                         graph, seen_hop, model):
    # every hop goes to an unvisited candidate of the ant's node, or, when
    # every candidate is visited, to its nearest unvisited clear neighbour
    # (ties to the lower index); an ant strands only with none
    g = random_graph(*graph)
    monkeypatch.setattr(aco, "_ROW_TABLE_BYTES", budget_for(g, 50))
    lists = candidate_lists(g, aco._CANDIDATES)
    hops = {"listed": 0, "nearest": 0, "stranded": 0, "hop after a strand": 0}
    _, payloads = traced_solve(g, AcoParams(variant=variant, n_ants=12, n_iterations=8, seed=3),
                               model)
    for *_, ants in payloads:
        steps = {}  # step -> ([ants that hop off their lists], [ants that strand])
        for ant, (nodes, _, complete) in enumerate(ants):
            seen = {g.home}
            for step, (a, b) in enumerate(zip(nodes, nodes[1:len(nodes) - complete]), 1):
                open_listed = [c for c in lists[a] if c not in seen]
                if open_listed:
                    assert b in open_listed
                    hops["listed"] += 1
                else:
                    near = min((math.dist(g.xy[a], g.xy[c]), c) for c in range(g.n_waypoints)
                               if g.adj[a, c] and c not in seen)
                    assert b == near[1]
                    hops["nearest"] += 1
                    steps.setdefault(step, ([], []))[0].append(ant)
                seen.add(b)
            if not complete:
                assert len(nodes) < g.n_nodes
                assert not any(g.adj[nodes[-1], c] for c in range(g.n_waypoints)
                               if c not in seen)
                hops["stranded"] += 1
                steps.setdefault(len(nodes), ([], []))[1].append(ant)
        hops["hop after a strand"] += sum(bool(hop) and bool(strand) and min(strand) < max(hop)
                                          for hop, strand in steps.values())
    assert hops["listed"] and hops[seen_hop]


FARMS = Path(__file__).resolve().parents[1] / "perfbench" / "farms.py"


@pytest.fixture(scope="module")
def step_graphs():
    """The reference farm's graph and the two halves of the benchmark's
    seed-1 600 x 350 m farm (field600), all within the row budget."""
    spec = importlib.util.spec_from_file_location("perfbench_farms", FARMS)
    farms = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(farms)
    farm = reference_farm()
    graphs = {"reference": build_graph(farm, generate_waypoints(farm), 0)}
    farm = load_map(farms.generate_farm(farms.FarmSpec(600, 350, 5, 9), 1000))  # --seed 1
    w = generate_waypoints(farm)
    for k, part in enumerate(partition(farm, w, 2)):
        graphs[f"field600 half {k}"] = build_graph(farm, w, k, include=part)
    return graphs


def run_both_steps(monkeypatch, g, params, model=MODEL):
    """traced_solve with every node's clear neighbours on its candidate
    list, once with the full-row step and once with the candidate step
    forced by a budget just below the full rows' need."""
    need = (1 + int(g.adj.sum())) * 8 * g.n_nodes
    with monkeypatch.context() as patch:
        patch.setattr(aco, "_CANDIDATES", int(g.adj.sum(axis=1).max()))
        assert not aco._Space(g, model, params.beta).listed
        full = traced_solve(g, params, model)
        patch.setattr(aco, "_ROW_TABLE_BYTES", need - 1)
        space = aco._Space(g, model, params.beta)
        assert space.listed and space.every_pair  # the table still stores every pair
        listed = traced_solve(g, params, model)
    return full, listed


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("variant", ["AS", "MMAS"])
@pytest.mark.parametrize("graph", ["reference", "field600 half 0", "field600 half 1"])
def test_the_two_construction_steps_walk_alike(monkeypatch, step_graphs, graph, variant, seed):
    # with lists that hold every clear neighbour, the candidate step weighs
    # the options the full-row step does, so each step checks the other:
    # walks, trails, costs and the result, bit for bit
    full, listed = run_both_steps(monkeypatch, step_graphs[graph],
                                  AcoParams(variant=variant, n_iterations=15, seed=seed))
    assert full[0].best_tour.is_valid
    assert listed == full


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
@pytest.mark.parametrize("model,alpha", [
    (EnergyModel(1e-320, 0.0173), 1.0),   # eta = 1 / (lambda * d) overflows
    (EnergyModel(1e-320, 1e304), 1.0),    # the scaled lambda * d is 0 on every edge
    (MODEL, 1e308),                       # tau^alpha underflows to 0
])
def test_the_two_construction_steps_walk_alike_on_extreme_models(monkeypatch, step_graphs,
                                                                  variant, model, alpha):
    params = AcoParams(variant=variant, n_iterations=15, alpha=alpha, seed=1)
    full, listed = run_both_steps(monkeypatch, step_graphs["reference"], params, model)
    assert listed == full


@pytest.mark.parametrize("n", [80, 160, 400])
def test_row_table_build_stays_within_its_budget(n):
    g = random_graph(n, 3)
    tracemalloc.start()  # the bytes a built space holds
    try:
        space = aco._Space(g, MODEL, 3.0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.listed == (n != 80)  # 160 and 400 nodes use candidate lists
    kept = (space.dist, space.row_of, space.table, space.cand)
    assert held <= sum(a.nbytes for a in kept) + 64 * n  # no other n x n
    budget = aco._ROW_TABLE_BYTES
    tracemalloc.start()  # rebuild the space's candidate lists and table, traced
    try:
        cand = space.candidates()
        _, cand_peak = tracemalloc.get_traced_memory()
        row_of, table = space.heading_rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes <= budget
    assert peak < 1.5 * table.nbytes
    assert cand_peak < budget / 16  # the lists are ranked a slice of rows at a time
    assert np.array_equal(cand, space.cand)
    assert np.array_equal(row_of, space.row_of)
    assert np.array_equal(table, space.table)
    h, i, rows = stored_pairs(space)
    assert (-1, g.home) in zip(h.tolist(), i.tolist())
    if table.shape[0] < len(arrival_pairs(g)):
        assert n == 400 and table.nbytes > budget - table[0].nbytes  # the budget is spent
        # every pair reached by choosing a candidate is kept
        listed = g.adj[np.arange(n)[:, None], space.cand]
        assert (row_of[:n][np.arange(n)[:, None], space.cand][listed] >= 0).all()


def test_a_thousand_node_solve_stays_within_its_memory_and_cpu_budget():
    # the table holds 65 536 candidate rows, fewer than the graph's arrival
    # pairs, so the ants also read rows computed per step
    g = random_graph(1000, 5, keep=0.3)
    n = g.n_nodes
    assert 1 + g.adj.sum() > aco._ROW_TABLE_BYTES // (8 * aco._CANDIDATES)
    tracemalloc.start()
    try:
        cpu = time.process_time()
        run = solve(g, MODEL, AcoParams(variant="MMAS", n_ants=8, n_iterations=2))
        cpu = time.process_time() - cpu
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = (8 * n * n      # dist
            + 8 * n * n    # tau
            + 8 * n * n    # the iteration's tau^alpha
            + 4 * (n + 1) * n  # row_of
            + n * n)       # adj
    transient = 16 * n * n  # pair_distances' (n, n, 2) coordinate differences
    assert peak < held + transient + aco._ROW_TABLE_BYTES
    assert cpu < 10.0
    assert len(run.best_cost_history) == 2


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


# AS only with alpha = 0: its first trail n_ants / q scales with the model,
# its deposits q / cost do not
@pytest.mark.parametrize("variant,alpha", [("MMAS", 2.0), ("AS", 0.0)])
def test_power_of_two_energy_scales_give_the_same_tours(variant, alpha):
    # eta and the trails are scaled by powers of two, exactly, so a model
    # 2^-900 times smaller makes every choice the same; unscaled, eta^3
    # would overflow to inf
    farm = reference_farm()
    g = build_graph(farm, generate_waypoints(farm), 0)
    small = EnergyModel(math.ldexp(MODEL.lambda_kj_per_m, -900),
                        math.ldexp(MODEL.gamma_kj_per_deg, -900))
    params = AcoParams(variant=variant, n_iterations=20, alpha=alpha, seed=3)
    run, tiny = solve(g, MODEL, params), solve(g, small, params)
    assert tiny.best_tour.nodes == run.best_tour.nodes
    assert tiny.best_iteration == run.best_iteration
    assert tiny.best_tour.cost_kj == math.ldexp(run.best_tour.cost_kj, -900)


@pytest.mark.parametrize("variant,model,rho", [
    ("MMAS", MODEL, 1e-320),                        # 1 / (rho * cost) overflows
    ("AS", EnergyModel(1e-320, 1e-320), None),      # n_ants / q overflows
])
def test_infinite_trails_weigh_like_equal_trails(variant, model, rho):
    # every trail is inf: the limit of the scaling weighs them all 1, as
    # alpha = 0 does, so the ants follow eta alone
    farm = reference_farm()
    g = build_graph(farm, generate_waypoints(farm), 0)
    inf_trails = solve(g, model, AcoParams(variant=variant, n_iterations=5, rho=rho, seed=4))
    blind = solve(g, model, AcoParams(variant=variant, n_iterations=5, alpha=0.0, seed=4))
    assert inf_trails.best_tour.is_valid
    assert inf_trails.best_tour == blind.best_tour


def test_construct_tour_on_infinite_trails_takes_only_unvisited_neighbours():
    # inf weights turn into nan on visited and pruned nodes; the step takes
    # only unvisited neighbours, uniformly among the infinite weights
    g = random_graph(25, 5, keep=0.6)
    tau = np.full((g.n_nodes, g.n_nodes), np.inf)
    for nodes, _ in construct_tours(g, tau, seed=2, m=20):
        assert len(set(nodes[1:])) == len(nodes) - 1
        assert all(g.adj[a, b] for a, b in zip(nodes, nodes[1:]))
    g = graph_from([(30, 0), (0, 10), (-60, 0)], (0, 0))
    counts = Counter(nodes[1] for nodes, _ in construct_tours(g, np.full((4, 4), np.inf),
                                                               seed=7, m=10_000))
    for leaf in (0, 1, 2):
        assert abs(counts[leaf] / 10_000 - 1 / 3) < 0.02


def test_an_ants_limit_choice_does_not_depend_on_its_batch(monkeypatch):
    # lambda so small that eta^3 overflows on every straight hop: a row whose
    # total is infinite takes the limit, its infinite options weighing 1,
    # whether or not another ant's row holds a nan (an infinite weight on a
    # visited node), so ant 0, always drawing 0.5, walks the same in any batch
    g = graph_from([(30.0 * i, 30.0 * j) for j in range(4) for i in range(5)], (-30, 0))
    tau = np.ones((g.n_nodes, g.n_nodes))
    rng = np.random.default_rng(1)

    def draw(k):
        return np.concatenate([[0.5], rng.random(k - 1)])

    walks = [construct_tours(g, tau, m=m, draw=draw, model=EnergyModel(1e-320, 0.0173))[0]
             for m in (1, 2, 5)]
    assert walks[0][1] and walks[0] == walks[1] == walks[2]
    # trails of 0: every option weighs 0, so each ant weighs its feasible
    # options equally (the rescue) on either step, and ant 0 walks the same
    # while other ants of its batch strand
    g = random_graph(25, 2, keep=0.2)
    for listed in (False, True):
        rng = np.random.default_rng(1)
        with monkeypatch.context() as patch:
            if listed:
                patch.setattr(aco, "_ROW_TABLE_BYTES", budget_for(g, 40))
            assert aco._Space(g, MODEL, 3.0).listed == listed
            walks = [construct_tours(g, np.zeros((g.n_nodes, g.n_nodes)), m=m, draw=draw)
                     for m in (1, 2, 5)]
        ant0 = walks[0][0][0]
        assert len(ant0) > 10 and ant0 == walks[1][0][0] == walks[2][0][0]
        assert any(not closed and len(nodes) < len(ant0) for nodes, closed in walks[2][1:])


def test_finite_weights_whose_total_overflows_keep_their_proportions():
    # 1 / (lambda * d) near the top of the float range: the three first-hop
    # weights are finite but their total overflows, and the ants still pick
    # in proportion to 1 / d
    g = graph_from([(30, 0), (0, 60), (-90, 0)], (0, 0))
    counts = Counter(nodes[1] for nodes, _ in construct_tours(
        g, np.ones((4, 4)), seed=7, m=10_000, beta=1.0, model=EnergyModel(6.7e-310, 1.0)))
    for leaf, share in zip((0, 1, 2), (6 / 11, 3 / 11, 2 / 11)):
        assert abs(counts[leaf] / 10_000 - share) < 0.02


@pytest.mark.parametrize("n,seed", [(3, 0), (7, 1), (40, 2), (155, 3)])
def test_nearest_neighbour_cost_matches_scalar_greedy_oracle(n, seed):
    g = random_graph(n, seed)
    assert not g.adj[~np.eye(n, dtype=bool)].all()  # some edges pruned
    want = oracles.greedy_tour_cost(g.xy.tolist(), MODEL.lambda_kj_per_m,
                                    MODEL.gamma_kj_per_deg)
    assert nearest_neighbour_cost(g, MODEL) == pytest.approx(want, rel=1e-12)


def test_nearest_neighbour_cost_walks_one_tour_in_little_memory():
    g = random_graph(800, 6)
    space = aco._Space(g, MODEL)
    tracemalloc.start()
    try:
        nearest_neighbour_cost(g, MODEL, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def check_polish_contract(g, params, monkeypatch):
    """Solve with the 2-opt polish and with _two_opt patched to identity, and
    check what the polish may change: only the result, never the colony.
    Returns (run, raw)."""
    run, payloads = traced_solve(g, params)
    with monkeypatch.context() as patch:
        patch.setattr(aco, "_two_opt", lambda space, t, cost: (t, cost))
        raw, raw_payloads = traced_solve(g, params)
    assert payloads == raw_payloads  # the polish never feeds the colony
    # raw's history is the colony's running best; the polish only lowers it
    h = run.best_cost_history
    assert all(a <= b for a, b in zip(h, raw.best_cost_history))
    assert h[run.best_iteration - 1] == h[-1] == run.best_tour.cost_kj
    # no dearer than a polish of the colony's final best alone
    _, final_only = aco._two_opt(aco._Space(g, MODEL), np.array(raw.best_tour.nodes),
                                 raw.best_tour.cost_kj)
    assert run.best_tour.cost_kj <= final_only
    return run, raw


@pytest.mark.parametrize("seed", [2, 7, 8, 9])
def test_the_last_iteration_polishes_the_colony_best(monkeypatch, seed):
    # the colony's final best never beat the result, so only the last
    # iteration's polish ran on it, and that polish is the result
    g = random_graph(25, 5, keep=0.4)
    params = AcoParams(variant="MMAS", n_ants=12, n_iterations=30, seed=seed)
    run, raw = check_polish_contract(g, params, monkeypatch)
    h = run.best_cost_history
    assert run.best_iteration == 30 and h[-1] < h[-2] <= raw.best_tour.cost_kj
    nodes, cost = aco._two_opt(aco._Space(g, MODEL), np.array(raw.best_tour.nodes),
                               raw.best_tour.cost_kj)
    assert run.best_tour.nodes == tuple(nodes.tolist()) and run.best_tour.cost_kj == cost


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
def test_traced_ant_costs_equal_tour_cost(variant, monkeypatch):
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
    plain, raw = check_polish_contract(g, params, monkeypatch)
    assert raw.best_cost_history == tuple(running_best[1:])  # the colony's running best
    assert traced == plain


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
def test_solve_with_the_station_on_a_waypoint(variant):
    # the station coincides with the grid waypoint at (20, 20): no greedy
    # walk may close on that zero-length leg
    m = FarmMap(Point2D(0, 0), Point2D(60, 60), (), (Point2D(20, 20),), 0.0, 20.0)
    g = build_graph(m, generate_waypoints(m), 0)
    assert (g.xy[:g.home] == g.xy[g.home]).all(axis=1).sum() == 1
    want = oracles.greedy_tour_cost(g.xy.tolist(), MODEL.lambda_kj_per_m,
                                    MODEL.gamma_kj_per_deg)
    assert nearest_neighbour_cost(g, MODEL) == pytest.approx(want, rel=1e-12)
    run = solve(g, MODEL, AcoParams(variant=variant, n_iterations=5))
    assert run.best_tour.is_valid
    assert run.best_tour == tour_cost(g, MODEL, run.best_tour.nodes)


def reversed_run(t, i, j):
    return t[:i] + t[i:j + 1][::-1] + t[j + 1:]


def test_reversal_deltas_match_a_recost_from_scratch():
    # every legal reversal whose new leg out of t[i-1] runs to one of that
    # node's candidates (neighbour lists), on random walks of seeded pruned
    # graphs, its delta against the oracle's cost of the reversed walk from
    # scratch
    rng = random.Random(21)
    lam, gam = MODEL.lambda_kj_per_m, MODEL.gamma_kj_per_deg
    checked, ends, neighbours = 0, 0, 0
    for seed in range(8):
        g = random_graph(rng.randint(20, 45), 30 + seed)
        space = aco._Space(g, MODEL)
        lists = candidate_lists(g, aco._CANDIDATES)
        for _ in range(3):
            order = list(range(g.n_waypoints))
            rng.shuffle(order)
            t = [g.home] + order + [g.home]
            last = len(t) - 2
            i, j, delta = aco._reversal_deltas(space, np.array(t), math.inf)
            moves = list(zip(i.tolist(), j.tolist()))
            assert moves == sorted(moves) == sorted(
                (a, b) for a in range(1, last + 1) for b in range(a + 1, last + 1)
                if t[b] in lists[t[a - 1]] and g.adj[t[a - 1], t[b]] and g.adj[t[a], t[b + 1]])
            old = oracles.polyline_cost(g.xy[t].tolist(), lam, gam)
            for (a, b), d in zip(moves, delta.tolist()):
                new = oracles.polyline_cost(g.xy[reversed_run(t, a, b)].tolist(), lam, gam)
                assert d == pytest.approx(new - old, rel=1e-9), (seed, a, b)
            checked += len(moves)
            ends += (1, last) in moves
            neighbours += sum(b == a + 1 for a, b in moves)
            # the bound only drops moves that cannot improve, and changes no delta
            i0, j0, d0 = aco._reversal_deltas(space, np.array(t))
            improving = {m: d for m, d in zip(moves, delta.tolist()) if d < 0.0}
            pruned = dict(zip(zip(i0.tolist(), j0.tolist()), d0.tolist()))
            assert improving.items() <= pruned.items()
            assert len(pruned) < len(moves)
    assert checked >= 1000 and ends and neighbours


def test_a_polish_pass_scores_at_most_k_moves_per_position():
    # a 21 x 21 grid flown in a seeded random order: a full scan would score
    # every legal pair of positions, about len(t)^2 / 2 = 97 000 moves here
    grid = [(30.0 * x, 30.0 * y) for y in range(21) for x in range(21)]
    g = graph_from(grid, (-30.0, -30.0))
    order = list(range(g.n_waypoints))
    random.Random(3).shuffle(order)
    t = np.array([g.home] + order + [g.home])
    i, j, delta = aco._reversal_deltas(aco._Space(g, MODEL), t, math.inf)
    assert 0 < i.size <= (len(t) - 2) * aco._CANDIDATES
    assert delta.min() < 0.0


def test_polish_keeps_a_valid_tour_no_dearer_than_the_colony_best(monkeypatch):
    improved = 0
    for seed in (1, 2, 3):
        g = random_graph(30, 40 + seed)
        for variant in ("AS", "MMAS"):
            params = AcoParams(variant=variant, n_ants=10, n_iterations=20, seed=seed)
            run, raw = check_polish_contract(g, params, monkeypatch)
            tour = run.best_tour
            assert tour.is_valid and all(g.adj[a, b] for a, b in zip(tour.nodes, tour.nodes[1:]))
            assert tour == tour_cost(g, MODEL, tour.nodes)
            improved += tour.cost_kj < raw.best_tour.cost_kj
            # a polished tour is a fixed point of the polish
            again, cost = aco._two_opt(aco._Space(g, MODEL), np.array(tour.nodes), tour.cost_kj)
            assert tuple(again.tolist()) == tour.nodes and cost == tour.cost_kj
    assert improved


@pytest.mark.parametrize("variant", ["AS", "MMAS"])
def test_first_complete_iteration_is_polished_on_the_reference_farm(variant):
    # the first complete iteration's history entry is already a 2-opt fixed
    # point: a run cut off there returns that tour, and polishing it again
    # changes nothing
    farm = reference_farm()
    g = build_graph(farm, generate_waypoints(farm), 0)
    h = solve(g, MODEL, AcoParams(variant=variant, n_iterations=30, seed=42)).best_cost_history
    k = 1 + sum(math.isinf(c) for c in h)
    cut = solve(g, MODEL, AcoParams(variant=variant, n_iterations=k, seed=42))
    assert cut.best_cost_history == h[:k] and cut.best_iteration == k
    tour = cut.best_tour
    again, cost = aco._two_opt(aco._Space(g, MODEL), np.array(tour.nodes), tour.cost_kj)
    assert tuple(again.tolist()) == tour.nodes and cost == tour.cost_kj == h[k - 1]


def test_polish_uncrosses_a_crossing_tour():
    # a 4 x 4 grid flown as a serpentine from the corner station; each
    # single reversal of the serpentine that makes two legs cross
    grid = [(x, y) for y in (0, 10, 20, 30) for x in (0, 10, 20, 30)]
    g = graph_from(grid, (-10, -10))
    space = aco._Space(g, MODEL)
    serpentine = [16, 0, 1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11, 15, 14, 13, 12, 16]
    crossing = 0
    for i in range(1, 17):
        for j in range(i + 1, 17):
            t = reversed_run(serpentine, i, j)
            if not oracles.crossing_legs(g.xy[t].tolist()):
                continue
            crossing += 1
            cost = tour_cost(g, MODEL, t).cost_kj
            out, out_cost = aco._two_opt(space, np.array(t), cost)
            assert out_cost < cost
            assert oracles.crossing_legs(g.xy[out].tolist()) == []
            assert tour_cost(g, MODEL, out.tolist()).cost_kj == out_cost
    assert crossing > 50
