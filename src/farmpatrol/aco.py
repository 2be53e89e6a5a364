"""Ant colony solvers for the coverage tour.

Two variants share one construction engine:

* "AS" (ant system): every ant that completes a valid tour deposits
  q / cost on the edges it used, with q the mean cost of the greedy
  nearest-neighbour tours (nearest_neighbour_cost).
* "MMAS" (max-min ant system): only the best tour found so far deposits
  (1 / best cost), and trails are clamped into [tau_min, tau_max] with
  tau_max = 1 / (rho * best_cost) and tau_min = tau_max / (2 * n_nodes).

Ants start at home, repeatedly pick an unvisited waypoint j among the current
node's neighbours with probability proportional to tau^alpha * eta^beta,
where eta = 1 / (lambda * d + gamma * turn) accounts for the heading change
the hop would require. An ant that strands on a node with no unvisited
neighbours, or that cannot close the loop back to home, yields an invalid
tour and deposits nothing.

solve is the only entry point. All ants of an iteration are constructed in
lockstep on numpy arrays (_construct_batch). A step reads the eta^beta row
of each ant's (previous node, node) pair. solve keeps up to _ROW_TABLE_BYTES
of these rows, those of the shortest arrival legs first, at every graph
size, and computes the others per step by the same formula. Which rows are
kept changes speed and memory, never a tour (see _Space).
The closed tours of an iteration are costed together, row by row, with the
same arithmetic as tour_cost and the energy coefficients held by the
solve's one _Space. Incomplete walks are costed only while no
complete tour has been found (the best of them is returned when none ever
is) or when solve is traced.

Randomness is CPython's random.Random (the stdlib Mersenne twister) stream
of random() values, one per walking ant per step. solve owns its
random.Random(seed) and reads that stream through getrandbits in blocks of
_DRAW_BLOCK values (_Uniforms), bit for bit the values successive random()
calls give. So a seed maps to the same tours on any platform whose numpy
build gives the same floating-point results.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, Tour, path_metrics, path_metrics_rows, tour_cost
from .routegraph import RouteGraph, pair_distances

MAX_DEFAULT_ANTS = 50
# bytes of eta^beta rows a solve keeps (_Space.table), about the size of
# every (h, i) row of an 80-node graph
_ROW_TABLE_BYTES = 4 << 20
# uniforms a solve draws from its rng per getrandbits call
_DRAW_BLOCK = 4096


@dataclass(frozen=True, slots=True)
class AcoParams:
    """Colony settings. The AS deposit scale q is not one of them: solve
    takes it from nearest_neighbour_cost, the mean greedy tour cost."""

    variant: str = "AS"
    n_ants: int | None = None          # default: one per waypoint, capped at 50
    n_iterations: int = 300
    alpha: float = 1.0
    beta: float = 3.0
    rho: float | None = None           # default 0.5 for AS, 0.05 for MMAS
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("AS", "MMAS"):
            raise ValueError(f"unknown variant {self.variant!r}, expected 'AS' or 'MMAS'")
        if self.n_ants is not None and self.n_ants < 1:
            raise ValueError("n_ants must be at least 1")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and >= 0")
        if self.rho is not None and not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")


@dataclass(frozen=True, slots=True)
class SolverRun:
    """Outcome of one solve: the best tour, the per-iteration best-valid cost
    trace (inf before the first valid tour appears) and bookkeeping.

    best_iteration is the 1-based iteration that found best_tour, or 0 when
    no ant completed a tour (best_tour is then the best incomplete walk).
    Whether the run found a coverage tour is best_tour.is_valid.
    """

    best_tour: Tour
    best_cost_history: tuple[float, ...]
    seed: int
    best_iteration: int


class _Space:
    """Precomputed arrays for fast construction on one graph + model.

    lam and gamma are the model's coefficients, dist holds the Euclidean
    length of every node pair and den = lam * dist, with pruned pairs at
    infinity. eta_pow_rows(h, i) gives the (m, n) eta^beta rows for hops out
    of i[k] by an ant that arrived from h[k] (h = -1: no heading yet). An ant
    only arrives over an edge, so the rows a step can read are those of the
    pairs (h, i) with adj[h, i], plus (-1, home). table keeps the rows of as
    many of these pairs as fit in _ROW_TABLE_BYTES, shortest arrival legs
    first, then a scratch row; row_of[h, i] is the pair's row in table, or -1
    (the scratch row, overwritten in the step's copy). A pair not kept has
    its row computed per step by the same formula (computed_rows), bit for
    bit the stored row. The reference farm's graphs keep every pair; at 156
    nodes about 20 arrivals per node fit, on average. With beta None only the
    geometry is set up (for nearest_neighbour_cost).
    """

    def __init__(self, g: RouteGraph, model: EnergyModel, beta: float | None = None):
        if not model.lambda_kj_per_m > 0:
            raise ValueError("solver needs a positive distance coefficient")
        self.n = g.n_nodes
        self.home = g.home
        self.adj = g.adj
        self.xy = g.xy
        self.beta = beta
        self.lam = model.lambda_kj_per_m
        self.gamma = model.gamma_kj_per_deg
        self.dist = d = pair_distances(g.xy)
        with np.errstate(invalid="ignore", divide="ignore"):
            ux = np.where(d > 0, (g.xy[None, :, 0] - g.xy[:, None, 0]) / d, 0.0)
            uy = np.where(d > 0, (g.xy[None, :, 1] - g.xy[:, None, 1]) / d, 0.0)
        self.ux, self.uy = ux, uy
        # lambda * d with pruned pairs at infinity so their weight vanishes
        self.den = np.where(g.adj, self.lam * d, np.inf)
        if beta is not None:
            self.row_of, self.table = self.heading_rows(_ROW_TABLE_BYTES)
            # some arrival pair has no stored row
            self.partial = self.table.shape[0] < 2 + g.adj.sum()

    def heading_rows(self, table_bytes: int) -> tuple[np.ndarray, np.ndarray]:
        """(row_of, table) for a table of at most table_bytes (one scratch
        row at least). Built a slice at a time, so the build's peak stays
        near the table's size plus row_of, an (n + 1) x n int32 map: the
        table's size at small n, but row_of alone is 2.4 MiB at 800 nodes."""
        n = self.n
        h, i = self._shortest_arrivals(max(0, table_bytes // (8 * n) - 1))
        row_of = np.full((n + 1, n), -1, dtype=np.int32)
        row_of[h, i] = np.arange(h.size)
        table = np.empty((h.size + 1, n))
        stored = table[:-1]
        chunk = max(1, h.size // 32)
        for a in range(0, h.size, chunk):
            stored[a:a + chunk] = self.computed_rows(h[a:a + chunk], i[a:a + chunk])
        return row_of, table

    def _shortest_arrivals(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The first k arrival pairs (h, i): (-1, home), then the k - 1
        shortest arrival edges by leg length."""
        h = i = np.empty(0, dtype=np.int64)
        cols = max(1, k // 16)  # merge a slice of columns at a time
        for a in range(0, self.n, cols):
            sh, si = np.nonzero(self.adj[:, a:a + cols])
            h, i = np.concatenate([h, sh]), np.concatenate([i, si + a])
            keep = np.argsort(self.dist[h, i], kind="stable")[:max(0, k - 1)]
            h, i = h[keep], i[keep]
        return (np.concatenate([[-1], h])[:k],
                np.concatenate([[self.home], i])[:k])

    def theta_rows(self, h: np.ndarray, i: np.ndarray) -> np.ndarray:
        """(m, n) heading changes at i[k] from heading h[k]->i[k]; zero rows
        where h[k] < 0 (no history)."""
        ux_in = self.ux[h, i][:, None]
        uy_in = self.uy[h, i][:, None]
        cross = np.abs(ux_in * self.uy[i] - uy_in * self.ux[i])
        dot = ux_in * self.ux[i] + uy_in * self.uy[i]
        out = np.degrees(np.arctan2(cross, dot))
        out[h < 0] = 0.0
        return out

    def computed_rows(self, h: np.ndarray, i: np.ndarray) -> np.ndarray:
        """(m, n) values of eta^beta for hops i[k] -> j given history h[k]."""
        return _pow_eta(self.den[i] + self.gamma * self.theta_rows(h, i), self.beta)

    def eta_pow_rows(self, h: np.ndarray, i: np.ndarray) -> np.ndarray:
        """computed_rows(h, i), read from table where it holds the pair."""
        rows = self.row_of[h, i]
        out = self.table.take(rows, axis=0)
        if self.partial and rows.min() < 0:
            miss = rows < 0
            out[miss] = self.computed_rows(h[miss], i[miss])
        return out


def _pow_eta(den: np.ndarray, beta: float) -> np.ndarray:
    """(1/den)^beta with 0 at den=inf, also for beta == 0."""
    if beta == 0.0:
        return np.isfinite(den).astype(float)
    inv = np.zeros_like(den)
    np.divide(1.0, den, out=inv, where=np.isfinite(den))
    if float(beta).is_integer() and 2 <= beta <= 8:
        out = inv * inv
        for _ in range(int(beta) - 2):
            out *= inv
        return out
    return np.power(inv, beta)


class _Uniforms:
    """The stream of rng.random() values, drawn in blocks.

    take(k) returns the next k values of the stream, bit for bit what k
    successive rng.random() calls would return, but draws them _DRAW_BLOCK
    at a time with one getrandbits call. The rng runs ahead of the values
    served, so the owner must draw from it through take alone.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._buf = np.empty(0)
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        """random() turns two successive 32-bit Mersenne twister words
        (w0, w1) into ((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53; getrandbits
        lays the same words out least significant first."""
        if self._pos + k > self._buf.size:
            rest = self._buf[self._pos:]
            size = max(_DRAW_BLOCK, k - rest.size)
            words = np.frombuffer(self._rng.getrandbits(64 * size).to_bytes(8 * size, "little"),
                                  dtype="<u4")
            block = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
            self._buf = np.concatenate([rest, block])
            self._pos = 0
        out = self._buf[self._pos:self._pos + k]
        self._pos += k
        return out


# w *= free in a step makes nan of an infinite weight on a visited node, which
# the step handles; set per batch, since entering errstate costs ~2 us
@np.errstate(invalid="ignore")
def _construct_batch(space: _Space, m: int, tau_pow: np.ndarray,
                     draw: Callable[[int], np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run m ants in lockstep. Returns (paths, lengths, closed), row k for
    ant k: ant k walked paths[k, :lengths[k]], and closed[k] means it visited
    every waypoint and closed the loop at home (then lengths[k] is the full
    row, n_waypoints + 2).

    draw(k) returns k uniforms in [0, 1). It is called once per construction
    step with k the number of ants still walking, whose draws are taken in
    ascending ant order, so results are reproducible for a given stream.

    Only the walking ants' state is kept, compacted: node, previous node,
    path so far and a 0/1 float mask of unvisited nodes that is multiplied
    into the weights. It shrinks only on a step where an ant strands, which
    is when that ant's walk is copied out.
    """
    n, home = space.n, space.home
    n_way = home
    paths = np.empty((m, n_way + 2), dtype=np.int64)
    lengths = np.full(m, n_way + 1)
    ids = np.arange(m)  # ant number of each walking ant
    walk = np.full((m, n_way + 2), home, dtype=np.int64)
    free = np.ones((m, n))
    free[:, home] = 0.0
    cur = np.full(m, home)
    prev = np.full(m, -1)
    rows = np.arange(m)  # row numbers of the compacted state

    for step in range(1, n_way + 1):
        w = space.eta_pow_rows(prev, cur)
        w *= tau_pow.take(cur, axis=0)
        w *= free
        tot = w.sum(axis=1)
        if not tot.min() > 0.0:
            # some row has no positive total: a dead end, every option
            # underflowed to zero, or an infinite weight (coincident nodes, a
            # tiny lambda) turned into nan on a visited node; zero the
            # visited nodes outright and look again
            w[free == 0.0] = 0.0
            tot = w.sum(axis=1)
            empty = tot <= 0.0
            if empty.any():
                feas = space.adj[cur] & (free > 0.0)
                rescue = empty & feas.any(axis=1)
                if rescue.any():
                    w[rescue] = feas[rescue]  # uniform fallback
                    tot = w.sum(axis=1)
                dead = empty & ~rescue
                if dead.any():
                    paths[ids[dead]] = walk[dead]
                    lengths[ids[dead]] = step
                    keep = ~dead
                    ids, walk, free, cur, prev, w, tot = (
                        a[keep] for a in (ids, walk, free, cur, prev, w, tot))
                    rows = np.arange(ids.size)
                    if ids.size == 0:
                        break
        r = draw(ids.size) * tot
        csum = np.add.accumulate(w, axis=1)
        nxt = (csum > r[:, None]).argmax(axis=1)
        # guard the rare rounding case r >= csum[-1]: take the last option
        overshoot = csum[:, -1] <= r
        if overshoot.any():
            last = n - 1 - np.argmax(w[:, ::-1] > 0, axis=1)
            nxt = np.where(overshoot, last, nxt)
        free[rows, nxt] = 0.0
        walk[:, step] = nxt
        prev, cur = cur, nxt

    paths[ids] = walk
    closed = np.zeros(m, dtype=bool)
    closed[ids] = space.adj[cur, home]
    lengths[closed] = n_way + 2
    return paths, lengths, closed


def _resolve(g: RouteGraph, params: AcoParams) -> tuple[int, float]:
    n_ants = params.n_ants
    if n_ants is None:
        n_ants = max(1, min(g.n_waypoints, MAX_DEFAULT_ANTS))
    rho = params.rho
    if rho is None:
        rho = 0.5 if params.variant == "AS" else 0.05
    return n_ants, rho


def _tour_costs(space: _Space, tours: np.ndarray) -> np.ndarray:
    """Energy of each row of an (m, k) array of equal-length node walks,
    bit for bit what tour_cost gives for the same walk."""
    dist, turn = path_metrics_rows(space.xy[tours])
    return space.lam * dist + space.gamma * turn


def _walk_cost(space: _Space, nodes: np.ndarray) -> float:
    """Energy of one node walk of any length; inf below two nodes."""
    if len(nodes) < 2:
        return math.inf
    dist, turn = path_metrics(space.xy[nodes])
    return space.lam * dist + space.gamma * turn


def nearest_neighbour_cost(g: RouteGraph, model: EnergyModel,
                           space: _Space | None = None) -> float:
    """Mean cost of greedy closed tours, one per start node.

    Greedy by the turn-aware hop cost; pruned edges fall back to the straight
    line, since the figure is only used as a magnitude reference for deposits
    and initial trail levels. All starts walk in lockstep. space, when given,
    is the caller's precomputed _Space for the same graph and model.
    """
    if space is None:
        space = _Space(g, model)
    n = g.n_nodes
    starts = np.arange(n)
    walks = np.empty((n, n + 1), dtype=np.int64)
    walks[:, 0] = starts
    lengths = np.ones(n, dtype=np.int64)  # nodes walked so far, per start
    dist = space.dist
    seen = dist == 0.0  # never step onto a node that coincides with the start
    cur, prev = starts.copy(), np.full(n, -1)
    rows = starts  # starts still walking
    for step in range(1, n):
        c = cur[rows]
        hop = space.lam * dist[c] + space.gamma * space.theta_rows(prev[rows], c)
        hop[seen[rows]] = np.inf
        hop[dist[c] == 0.0] = np.inf  # coincident nodes are not hops
        nxt = np.argmin(hop, axis=1)
        moved = np.isfinite(hop[np.arange(rows.size), nxt])
        rows, nxt = rows[moved], nxt[moved]
        if rows.size == 0:
            break
        seen[rows, nxt] = True
        walks[rows, step] = nxt
        lengths[rows] += 1
        prev[rows] = cur[rows]
        cur[rows] = nxt
    walks[starts, lengths] = starts  # close every walk at its start

    costs = np.zeros(n)
    full = lengths == n
    costs[full] = _tour_costs(space, walks[full])
    for k in np.nonzero(~full & (lengths > 1))[0]:
        costs[k] = _walk_cost(space, walks[k, :lengths[k] + 1])
    total = 0.0
    for cost in costs.tolist():  # a running sum in start order
        total += cost
    return total / n


def _as_tour(g: RouteGraph, model: EnergyModel, nodes: tuple[int, ...],
             complete: bool) -> Tour:
    tour = tour_cost(g, model, nodes)
    if complete and not tour.is_valid:
        raise AssertionError("constructed tour failed the structural check")
    return tour


def solve(g: RouteGraph, model: EnergyModel, params: AcoParams,
          trace=None) -> SolverRun:
    """Run the configured colony and return the best tour found.

    Raises ValueError when the greedy reference cost q (see
    nearest_neighbour_cost) is not finite and positive: an energy scale that
    overflows on this map.

    trace, when given, is called after every iteration as
    trace(iteration, tau_copy, bounds, ants) with bounds = (tau_min, tau_max)
    for MMAS (None for AS) and ants = [(nodes, cost_kj, complete), ...] in
    construction order (cost_kj is inf for a walk of one node). Tracing
    copies the trail matrix and costs every incomplete walk, so leave it None
    for production runs. Untraced, incomplete walks are costed only while no
    complete tour has been found: the best of them is the fallback result
    when none ever is. Tracing changes no tour or cost.
    """
    if g.n_waypoints == 0:
        raise ValueError("graph has no waypoints to cover")
    n = g.n_nodes
    n_ants, rho = _resolve(g, params)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in q
        space = _Space(g, model, params.beta)
        q = nearest_neighbour_cost(g, model, space)
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError(f"energy scale out of range for this map: the greedy reference "
                         f"tour costs {q!r} kJ (lambda_kj_per_m {model.lambda_kj_per_m!r}, "
                         f"gamma_kj_per_deg {model.gamma_kj_per_deg!r})")
    draw = _Uniforms(random.Random(params.seed)).take

    if params.variant == "AS":
        tau = np.full((n, n), n_ants / q)
    else:
        tau_max = 1.0 / (rho * q)  # best cost unknown yet: seed with the greedy scale
        tau = np.full((n, n), tau_max)

    best_nodes: tuple[int, ...] | None = None
    best_cost = math.inf
    best_iteration = 0
    fallback_nodes: tuple[int, ...] | None = None  # best incomplete walk
    fallback_cost = math.inf
    history = []

    for it in range(params.n_iterations):
        tau_pow = tau if params.alpha == 1.0 else np.power(tau, params.alpha)
        paths, lengths, closed = _construct_batch(space, n_ants, tau_pow, draw)
        tours = paths[closed]
        costs = _tour_costs(space, tours)
        if costs.size:
            k = int(np.argmin(costs))  # first of equals, as a scan in ant order
            if costs[k] < best_cost:
                best_nodes, best_cost = tuple(tours[k].tolist()), float(costs[k])
                best_iteration = it + 1
        walk_costs = {}
        if trace is not None or best_nodes is None:
            for k in np.nonzero(~closed)[0].tolist():
                walk = paths[k, :lengths[k]]
                walk_costs[k] = cost = _walk_cost(space, walk)
                if cost < fallback_cost:
                    fallback_nodes, fallback_cost = tuple(walk.tolist()), cost
        history.append(best_cost)

        tau *= (1.0 - rho)
        if params.variant == "AS":
            # edges of ant 0 forward, then backward, then ant 1, ...: each
            # trail cell receives its deposits in ant order
            a, b = tours[:, :-1], tours[:, 1:]
            np.add.at(tau, (np.hstack([a, b]).ravel(), np.hstack([b, a]).ravel()),
                      np.repeat(q / costs, 2 * a.shape[1]))
            bounds = None
        else:
            ref = best_cost if best_nodes is not None else q
            tau_max = 1.0 / (rho * ref)
            tau_min = tau_max / (2.0 * n)
            if best_nodes is not None:
                a = np.asarray(best_nodes[:-1])
                b = np.asarray(best_nodes[1:])
                tau[a, b] += 1.0 / best_cost
                tau[b, a] += 1.0 / best_cost
            np.clip(tau, tau_min, tau_max, out=tau)
            bounds = (tau_min, tau_max)
        if trace is not None:
            closed_costs = iter(costs.tolist())
            ants = [(tuple(paths[k, :lengths[k]].tolist()),
                     next(closed_costs) if closed[k] else walk_costs[k], bool(closed[k]))
                    for k in range(n_ants)]
            trace(it, tau.copy(), bounds, ants)

    if best_nodes is not None:
        best = _as_tour(g, model, best_nodes, True)
    elif fallback_nodes is not None:
        best = _as_tour(g, model, fallback_nodes, False)
    else:
        best = Tour((g.home,), 0.0, 0.0, 0.0, False)
    return SolverRun(best, tuple(history), params.seed, best_iteration)
