"""Ant colony solvers for the coverage tour.

Two variants share one construction engine:

* "AS" (ant system): every ant that completes a valid tour deposits
  q / cost on the edges it used, with q the cost of the greedy
  nearest-neighbour tour from home (nearest_neighbour_cost).
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
of each ant's (previous node, node) pair from a table of at most
_ROW_TABLE_BYTES (see _Space). When the full rows of every pair fit, as on
the reference farm, the table holds them all and an ant weighs every
unvisited neighbour. On a larger graph an ant weighs only the candidates of
its node, its _CANDIDATES nearest clear neighbours (candidate lists, Dorigo
& Gambardella 1997; Stützle & Hoos 2000), and hops to its nearest
unvisited clear neighbour when every candidate is visited; the table holds
the candidate rows of as many pairs as fit and a step computes the others.
Within each path the budget changes speed and memory, never a tour; a graph
that crosses it changes path, and so tours. One rule picks for every ant:
the first option whose running sum of weights passes its uniform times the
row total, the running sum's last column. The special cases only rewrite
an ant's running sum before that pick: a rescue (weights that all
underflowed) counts the feasible options, an off-list hop makes its node
the only option, and a total the draw does not fit takes its limit or a
power-of-two scale. Only an ant that strands leaves the batch, and no
ant's choice depends on the others in its batch.
Every turn the colony weighs is energy.turns of two legs taken from the
node coordinates, the formula tour_cost charges. _energy, aco's one call of
energy.path_metrics, costs every walk with the arithmetic of tour_cost and
the coefficients of the solve's one _Space: an iteration's closed tours as
one stack, any other walk alone. Incomplete walks are costed only while no
complete tour has been found (the best of them is returned when none ever
is) or when solve is traced.

solve polishes the colony's best tour with a best-improvement, turn-aware
2-opt (_two_opt; Croes 1958). One rule decides when: at the end of each
iteration, the colony's best is polished if it is not yet and either beats
the best polished tour so far (local search on improvements, as in MMAS+LS,
Stützle & Hoos 2000) or the iteration is the last. A move reverses
positions i..j: it swaps two legs for two new ones, which must be graph
edges, and changes at most four turns, none at home. A pass scores only the
moves whose new leg out of position i - 1 runs to one of that node's
candidates, its _CANDIDATES nearest clear neighbours (neighbour lists,
Bentley 1992; Johnson & McGeoch 1997), found through each node's position
in the walk: at most _CANDIDATES moves per position, not every pair of
positions. One numpy pass scores them from the solve's _Space
(_reversal_deltas), measuring new turns only where a lower bound can still
improve. The best move is recosted exactly and kept only if that cost is
strictly lower, so the pass ends. The colony itself never sees a polished
tour: it keeps its own best for the MMAS deposit and trail bounds, so the
polish changes no walk, trail or trace payload, only the result, which
costs at most the polish of the colony's final best.

The weights of a step are scaled by powers of two, which is exact and so
changes no choice: eta by the one that brings the larger energy coefficient
into [0.5, 1), and the trails, each iteration, by the one that brings the
largest into [0.5, 1). So eta^beta and tau^alpha stay finite for tiny
coefficients and huge exponents. They can still underflow, which ends in
the step's uniform rescue, and eta^beta can overflow when lambda is far
below gamma, which the step takes as the limit.

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

from .energy import EnergyModel, Tour, path_metrics, tour_cost, turns
from .routegraph import RouteGraph, pair_distances

MAX_DEFAULT_ANTS = 50
# each variant's evaporation rate when AcoParams.rho is None
DEFAULT_RHO = {"AS": 0.5, "MMAS": 0.05}
# bytes of eta^beta rows a solve keeps (_Space.table), about the size of
# every (h, i) row of an 80-node graph
_ROW_TABLE_BYTES = 4 << 20
# nearest clear neighbours an ant chooses among on a graph whose arrival rows
# do not all fit _ROW_TABLE_BYTES (_Space.candidates)
_CANDIDATES = 8
# uniforms a solve draws from its rng per getrandbits call
_DRAW_BLOCK = 4096


@dataclass(frozen=True, slots=True)
class AcoParams:
    """Colony settings. The AS deposit scale q is not one of them: solve
    takes it from nearest_neighbour_cost, the greedy tour's cost."""

    variant: str = "AS"
    n_ants: int | None = None          # default: one per waypoint, at most MAX_DEFAULT_ANTS
    n_iterations: int = 300
    alpha: float = 1.0
    beta: float = 3.0
    rho: float | None = None           # default: DEFAULT_RHO[variant]
    seed: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("n_iterations", self.n_iterations),
                            ("n_ants", 1 if self.n_ants is None else self.n_ants)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {type(value).__name__}")
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
    """Outcome of one solve: the best tour, the per-iteration cost of the
    best polished tour so far (inf before the first valid tour appears; at
    most the colony's own best) and bookkeeping.

    best_iteration is the 1-based iteration at whose end the polish found
    best_tour, or 0 when no ant completed a tour (best_tour is then the best
    incomplete walk); best_cost_history[best_iteration - 1] is best_tour's
    cost.
    Whether the run found a coverage tour is best_tour.is_valid.
    """

    best_tour: Tour
    best_cost_history: tuple[float, ...]
    seed: int
    best_iteration: int


class _Space:
    """Precomputed arrays for fast construction on one graph + model.

    lam and gamma are the model's coefficients, and leg_weight and
    turn_weight the same scaled by one power of two. dist, the length of
    every node pair, is the only (n, n) float array: turns come from xy.
    adj, the graph's, masks every leg a tour may fly (RouteGraph).

    cand, each node's candidate list (see candidates), is built on every
    graph: the 2-opt polish scores its moves from it. An ant at node i
    weighs its options: every node, or, when listed, only the nodes
    cand[i]. computed_rows(h, i), the only code that writes a row, gives
    the (m, width) eta^beta values over the options of i[k] for an ant that
    arrived from h[k] (h = -1: no heading yet). An ant only arrives over an
    edge, so a step reads the rows of the pairs (h, i) with adj[h, i], plus
    (-1, home), from table, where row_of[h, i] is the pair's row
    (eta_pow_rows). When every pair's full row fits _ROW_TABLE_BYTES, as on
    the reference farm and the halves of a 600 x 350 m field, listed is
    False and table holds them all. Otherwise the ants use candidate lists,
    and table holds the candidate rows of as many pairs as fit, those an
    ant reaches by choosing a candidate first; a step computes the others.
    With beta None no table is built (nearest_neighbour_cost reads none).
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
        self.dist = pair_distances(g.xy)
        # lambda and gamma, scaled by the power of two that brings the larger
        # into [0.5, 1): exact, so no step's choice changes, and eta^beta
        # stays finite however small lambda and gamma are
        shift = -math.frexp(max(self.lam, self.gamma))[1]
        self.leg_weight = math.ldexp(self.lam, shift)
        self.turn_weight = math.ldexp(self.gamma, shift)
        self.cand = self.candidates()
        pairs = 1 + int(g.adj.sum())
        # whether the ants weigh only their node's candidates: the full rows
        # of every arrival pair do not fit the budget
        self.listed = beta is not None and pairs * 8 * self.n > _ROW_TABLE_BYTES
        if beta is not None:
            self.row_of, self.table = self.heading_rows()
            self.every_pair = len(self.table) == pairs  # then no step misses the table

    def candidates(self) -> np.ndarray:
        """(n, width) candidate lists, width = min(_CANDIDATES, n): each
        node's nearest clear neighbours by leg length, home left out and ties
        to the lower index, in ascending node order. A node with fewer such
        neighbours pads its list with itself, which an ant never picks: it
        is visited and has no leg to itself. Ranked a slice of rows at a
        time, so the build's temporaries stay within _ROW_TABLE_BYTES / 64
        at any graph size."""
        n = self.n
        cand = np.empty((n, min(_CANDIDATES, n)), dtype=np.int64)
        per = max(1, _ROW_TABLE_BYTES // 64 // (16 * n))  # a float and an index per pair
        for a in range(0, n, per):
            legs = np.where(self.adj[a:a + per], self.dist[a:a + per], np.inf)
            legs[:, self.home] = np.inf
            near = np.argsort(legs, axis=1, kind="stable")[:, :_CANDIDATES]
            clear = np.isfinite(np.take_along_axis(legs, near, axis=1))
            cand[a:a + per] = np.where(clear, near, np.arange(a, a + len(legs))[:, None])
        cand.sort(axis=1)
        return cand

    def heading_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(row_of, table): the rows of as many arrival pairs as fit
        _ROW_TABLE_BYTES, (-1, home) first, then node h by node h the pairs
        (h, i); with candidate lists, those with i a candidate of h, the
        pairs an ant reaches by choosing a candidate, before the others.
        Built through computed_rows a slice of about size / 64 pairs at a
        time, so the build's peak stays near the table's size plus row_of,
        an (n + 1) x n int32 map."""
        n = self.n
        if not self.listed:
            width, groups = n, (self.adj,)
        else:
            width = self.cand.shape[1]
            on_list = np.zeros((n, n), dtype=bool)
            on_list[np.arange(n)[:, None], self.cand] = True
            groups = (self.adj & on_list, self.adj & ~on_list)
        size = min(1 + int(self.adj.sum()), _ROW_TABLE_BYTES // (8 * width))
        row_of = np.full((n + 1, n), -1, dtype=np.int32)
        table = np.empty((size, width))
        row_of[-1, self.home] = 0
        table[0] = self.computed_rows(np.array([-1]), np.array([self.home]))
        filled = 1
        per = max(1, size // 64)
        for group in groups:
            # cut before the node h whose pairs pass each multiple of per
            ends = np.cumsum(group.sum(axis=1))
            cuts = sorted({0, n, *np.searchsorted(ends, np.arange(per, ends[-1], per)).tolist()})
            for a, b in zip(cuts[:-1], cuts[1:]):
                h, i = np.nonzero(group[a:b])
                h, i = h[:size - filled] + a, i[:size - filled]
                row_of[h, i] = np.arange(filled, filled + h.size)
                table[filled:filled + h.size] = self.computed_rows(h, i)
                filled += h.size
        return row_of, table

    def turn(self, a, b, c) -> np.ndarray:
        """Heading change in degrees at b when flying a -> b -> c, for node
        index arrays that broadcast together."""
        x, y = self.xy[:, 0], self.xy[:, 1]
        xb, yb = x[b], y[b]
        return turns(xb - x[a], yb - y[a], x[c] - xb, y[c] - yb)

    def computed_rows(self, h: np.ndarray, i: np.ndarray) -> np.ndarray:
        """(m, width) values of eta^beta for hops out of i[k] to its options
        given history h[k]; no turn where h[k] < 0, and 0 where the hop is
        no edge."""
        if self.listed:
            to = self.cand[i]  # the option nodes
            edge, leg = self.adj[i[:, None], to], self.dist[i[:, None], to]
        else:
            to = np.arange(self.n)
            edge, leg = self.adj.take(i, axis=0), self.dist.take(i, axis=0)
        theta = self.turn(h[:, None], i[:, None], to)
        theta[h < 0] = 0.0
        den = np.where(edge, self.leg_weight * leg, np.inf)
        return _pow_eta(den + self.turn_weight * theta, self.beta)

    def eta_pow_rows(self, h: np.ndarray, i: np.ndarray) -> np.ndarray:
        """computed_rows(h, i), read from table; only a table of candidate
        rows can miss a pair, whose row is computed."""
        rows = self.row_of[h, i]
        out = self.table.take(rows, axis=0)
        if not self.every_pair and rows.min() < 0:
            miss = rows < 0
            out[miss] = self.computed_rows(h[miss], i[miss])
        return out


def _pow_eta(den: np.ndarray, beta: float) -> np.ndarray:
    """(1/den)^beta with 0 at den=inf, also for beta == 0. A den of 0 (lambda
    * d underflowed on a straight hop) or a power past the float range gives
    inf, which the step takes as the limit."""
    if beta == 0.0:
        return np.isfinite(den).astype(float)
    inv = np.zeros_like(den)
    with np.errstate(divide="ignore", over="ignore"):
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


# w *= free in a step makes nan of an infinite weight on a visited node,
# which the step handles, and a row of huge finite weights can overflow its
# total. Set per batch, since entering errstate costs ~2 us
@np.errstate(invalid="ignore", over="ignore")
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

    One rule picks every ant's next option: the first whose running sum of
    weights, csum, exceeds r, the ant's uniform times its row total (the
    last column). Each special case rewrites the ant's csum row before that
    pick, r following its new total, and only a strand leaves the batch. A
    nan total (an infinite weight on a visited node) has the batch's nan
    weights zeroed and its rows re-summed first. An ant whose total is 0 but
    that has feasible options (unvisited candidates or, on the full-row
    step, unvisited clear neighbours) takes their running count, so they
    weigh equally (the rescue). A row whose total the draw does not fit
    takes the running sum of its limit where it has an infinite weight
    (infinite options weigh 1, the others 0), else of its weights scaled by
    a power of two. So each ant's choice depends on its own row alone.

    On a graph with candidate lists (space.cand), a step weighs each ant's
    options only at its node's candidates, (m, width) slices of the same
    weights; the trails at the candidates are sliced once per batch. An ant
    with no positive total and no unvisited candidate hops off its list to
    its nearest unvisited clear neighbour (shortest leg, ties to the lower
    index): that node becomes its first and only option, at a running sum
    of 1, so it still takes its uniform. An ant with no feasible option and
    no such neighbour strands.
    """
    n, home, cand, listed = space.n, space.home, space.cand, space.listed
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
    if listed:
        tau_pow = np.take_along_axis(tau_pow, cand, axis=1)  # the trails at each node's options

    for step in range(1, n_way + 1):
        w = space.eta_pow_rows(prev, cur)
        w *= tau_pow.take(cur, axis=0)
        if listed:
            c = cand.take(cur, axis=0)  # each ant's options, a copy that a hop rewrites
            opts = free[rows[:, None], c]
        else:
            opts = free  # the unvisited mask at each ant's options
        w *= opts
        csum = np.add.accumulate(w, axis=1)
        low = csum[:, -1].min()  # nan when any total is
        if not low > 0.0:
            # some row total is 0 (a dead end, or every option underflowed)
            # or nan (an infinite weight on a visited node)
            if np.isnan(low):
                w[np.isnan(w)] = 0.0
                csum = np.add.accumulate(w, axis=1)
            k = (csum[:, -1] == 0.0).nonzero()[0]  # the ants with no positive total
            feas = opts.take(k, axis=0) > 0.0  # candidates are edges
            if not listed:
                feas &= space.adj.take(cur.take(k), axis=0)
            some = feas.any(axis=1)
            if some.any():
                # the rescue: the running count of the ant's feasible options
                csum[k[some]] = np.add.accumulate(feas[some], axis=1)
                k = k[~some]
            if listed and k.size:
                # every candidate visited: the nearest unvisited clear neighbour
                # by leg length (lambda * d underflows when lambda << gamma)
                # becomes the ant's only option
                at = cur.take(k)
                near = np.where((free.take(k, axis=0) > 0.0) & space.adj.take(at, axis=0),
                                space.dist.take(at, axis=0), np.inf)
                found = near.min(axis=1) < np.inf
                hops = k[found]
                c[hops, 0] = near.argmin(axis=1)[found]
                csum[hops] = 1.0  # its uniform fits, and the pick is column 0
                k = k[~found]
            if k.size:
                paths[ids[k]] = walk[k]
                lengths[ids[k]] = step
                keep = np.bincount(k, minlength=ids.size) == 0
                ids, walk, free, cur, prev, w, csum = (
                    a[keep] for a in (ids, walk, free, cur, prev, w, csum))
                if listed:
                    c = c[keep]
                rows = np.arange(ids.size)
                if ids.size == 0:
                    break
        u = draw(ids.size)
        tot = csum[:, -1]
        r = u * tot
        fits = tot > r  # u * total < total for every normal total
        if not fits.all():
            # a row with an infinite weight takes the limit; one of finite
            # weights whose total overflowed or is subnormal is scaled,
            # exactly, to a largest weight in [0.5, 1); the ant keeps its
            # uniform against the new total
            k = np.nonzero(~fits)[0]
            wk = w[k]
            top = wk.max(axis=1)
            lim = np.where(np.isinf(top)[:, None], np.isinf(wk),
                           np.ldexp(wk, -np.frexp(top)[1][:, None]))
            csum[k] = np.add.accumulate(lim, axis=1)
            r[k] = u[k] * csum[k, -1]
        pick = (csum > r[:, None]).argmax(axis=1)
        nxt = c[rows, pick] if listed else pick
        free[rows, nxt] = 0.0
        walk[:, step] = nxt
        prev, cur = cur, nxt

    paths[ids] = walk
    closed = np.zeros(m, dtype=bool)
    closed[ids] = space.adj[cur, home]
    lengths[closed] = n_way + 2
    return paths, lengths, closed


def _energy(space: _Space, walks: np.ndarray) -> float | np.ndarray:
    """Energy of one node walk, inf below two nodes, or of each row of an
    (m, k) array of equal-length walks: bit for bit what tour_cost gives for
    the same walk. aco's one call of path_metrics."""
    if walks.ndim == 1 and len(walks) < 2:
        return math.inf
    dist, turn = path_metrics(space.xy[walks])
    return space.lam * dist + space.gamma * turn


def nearest_neighbour_cost(g: RouteGraph, model: EnergyModel,
                           space: _Space | None = None) -> float:
    """Cost of the greedy closed tour from home, 0.0 when it makes no hop.

    Each hop goes to the unvisited node of lowest turn-aware hop cost, ties
    to the lower index, along the straight line even where the edge is
    pruned: like the nearest-neighbour tour of MMAS and ACS, the figure only
    sets the scale of deposits and first trails. space, when given, is the
    caller's _Space for the same graph and model."""
    if space is None:
        space = _Space(g, model)
    home, dist = g.home, space.dist
    seen = dist[home] == 0.0  # never step onto a node that coincides with home
    walk, turn = [home], np.zeros(g.n_nodes)  # no heading change on the first hop
    while True:
        cur = walk[-1]
        hop = space.lam * dist[cur] + space.gamma * turn
        hop[seen | (dist[cur] == 0.0)] = np.inf  # coincident nodes are not hops
        nxt = int(np.argmin(hop))
        if not np.isfinite(hop[nxt]):
            break
        seen[nxt] = True
        turn = space.turn(cur, nxt, np.arange(g.n_nodes))
        walk.append(nxt)
    return _energy(space, np.array(walk + [home])) if len(walk) > 1 else 0.0


def _reversal_deltas(space: _Space, t: np.ndarray,
                     below: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost change of reversing positions i..j of the closed walk t, for
    every legal move (1 <= i < j <= len(t) - 2) with t[j] a candidate of
    t[i-1] (space.cand: neighbour lists, Bentley 1992) whose lower bound is
    below `below`. Returns the arrays (i, j, delta), ordered by i, then j.

    The move replaces legs (t[i-1], t[i]) and (t[j], t[j+1]) with
    (t[i-1], t[j]) and (t[i], t[j+1]); it is legal when both are edges
    (space.adj[a, b]). It changes the turns at t[i-1], t[i], t[j] and t[j+1]
    only, none at home (positions 0 and len(t) - 1): a turn inside the run
    is the same read backwards. New turns are >= 0, so
    lam * (change in length) - gamma * (old turns) bounds the change from
    below, and the new turns are measured only where that bound is below
    `below`. A pass scores at most (len(t) - 2) * _CANDIDATES moves.
    """
    size = t.size
    turn = np.zeros(size)  # the old turn at each position
    turn[1:-1] = space.turn(t[:-2], t[1:-1], t[2:])
    leg = space.dist[t[:-1], t[1:]]  # leg p runs from t[p] to t[p + 1]
    pos = np.full(space.n, -1)  # each node's position in the walk, home at 0
    pos[t[:-1]] = np.arange(size - 1)
    # row i - 1: the positions of t[i-1]'s candidates, of which those past i
    # give the moves (i, j); a list's padding, t[i-1] itself, never does
    at = np.sort(pos[space.cand[t[:-3]]], axis=1)
    rows, cols = np.nonzero(at > np.arange(1, size - 2)[:, None])
    i, j = rows + 1, at[rows, cols]
    a, b, c, e = t[i - 1], t[i], t[j], t[j + 1]  # the new legs are a -> c and b -> e
    lower = (space.lam * (space.dist[a, c] + space.dist[b, e] - leg[i - 1] - leg[j])
             - space.gamma * ((turn[i - 1] + turn[i]) + (turn[j] + turn[j + 1])))
    k = np.flatnonzero(space.adj[a, c] & space.adj[b, e] & (lower < below))
    i, j, a, b, c, e = i[k], j[k], a[k], b[k], c[k], e[k]
    before, after = t[np.maximum(i - 2, 0)], t[np.minimum(j + 2, size - 1)]
    new = (np.where(i >= 2, space.turn(before, a, c), 0.0) + space.turn(a, c, t[j - 1])
           + space.turn(t[i + 1], b, e) + np.where(j <= size - 3, space.turn(b, e, after), 0.0))
    return i, j, lower[k] + space.gamma * new


def _two_opt(space: _Space, t: np.ndarray, cost: float) -> tuple[np.ndarray, float]:
    """Best-improvement 2-opt of the closed walk t of exact cost `cost`:
    take the reversal with the lowest delta (_reversal_deltas), recost it
    exactly with _energy, and keep it only if that cost is strictly lower;
    stop at the first move that is not. Returns (walk, cost)."""
    while True:
        i, j, delta = _reversal_deltas(space, t)
        if delta.size == 0 or not delta.min() < 0.0:
            return t, cost
        k = int(np.argmin(delta))
        moved = t.copy()
        moved[i[k]:j[k] + 1] = t[i[k]:j[k] + 1][::-1]
        moved_cost = _energy(space, moved)
        if not moved_cost < cost:
            return t, cost
        t, cost = moved, moved_cost


def solve(g: RouteGraph, model: EnergyModel, params: AcoParams,
          trace=None) -> SolverRun:
    """Run the configured colony, polishing its complete tours with 2-opt
    (_two_opt) as they improve on the result, and return the best.

    The ants weigh every unvisited neighbour when the full heading rows of
    g, (1 + directed edges) * n_nodes * 8 bytes, fit _ROW_TABLE_BYTES, and
    only the candidate lists of their node otherwise (see _Space). The two
    steps give different tours on the same graph.

    Raises ValueError, an energy scale that overflows on this map, when the
    greedy reference cost q (see nearest_neighbour_cost) is not finite and
    positive, or when some walk's cost could overflow, whatever walk q took.

    trace, when given, is called after every iteration as
    trace(iteration, tau_copy, bounds, ants) with bounds = (tau_min, tau_max)
    for MMAS (None for AS) and ants = [(nodes, cost_kj, complete), ...] in
    construction order (cost_kj is inf for a walk of one node). Tracing
    copies the trail matrix and costs every incomplete walk, so leave it None
    for production runs. Untraced, incomplete walks are costed only while no
    complete tour has been found: the best of them is the fallback result
    when none ever is. Tracing changes no tour or cost.

    At the end of each iteration the polish runs on the colony's own best
    if that is unpolished and either beats every polished tour so far or
    the iteration is the last; a fallback walk is returned as found. Then
    best_cost_history gains the result's cost. The colony and the trace see
    only the colony's own tours: AS and MMAS differ only in which walks lay
    trails, through one deposit, and in MMAS's clamp.
    """
    if g.n_waypoints == 0:
        raise ValueError("graph has no waypoints to cover")
    n = g.n_nodes
    n_ants = params.n_ants
    if n_ants is None:
        n_ants = max(1, min(g.n_waypoints, MAX_DEFAULT_ANTS))
    rho = DEFAULT_RHO[params.variant] if params.rho is None else params.rho
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in q or d
        space = _Space(g, model, params.beta)
        q = nearest_neighbour_cost(g, model, space)
    # a walk has at most n legs of at most d and n turns of 180 deg, and no
    # cross or dot product of legs over 2 d^2: if that is finite, none overflows
    d = float(space.dist.max())
    top = n * (space.lam * d + space.gamma * 180.0)
    if not (math.isfinite(q) and q > 0.0 and math.isfinite(top + 2.0 * d * d)):
        raise ValueError(f"energy scale out of range for this map: the greedy reference "
                         f"tour costs {q!r} kJ, and a tour of legs up to {d!r} m could cost up "
                         f"to {top!r} kJ (lambda_kj_per_m {model.lambda_kj_per_m!r}, "
                         f"gamma_kj_per_deg {model.gamma_kj_per_deg!r})")
    draw = _Uniforms(random.Random(params.seed)).take

    if params.variant == "AS":
        tau = np.full((n, n), n_ants / q)
    else:
        tau_max = 1.0 / (rho * q)  # best cost unknown yet: seed with the greedy scale
        tau = np.full((n, n), tau_max)

    # the colony's own best, unpolished, as a stack of one walk (none before
    # the first complete tour)
    best = np.empty((0, g.n_waypoints + 2), dtype=np.int64)
    best_cost = math.inf
    polished = True  # whether best went through _two_opt (vacuously while there is none)
    out_nodes = None  # the best polished tour: the result
    out_cost = math.inf
    best_iteration = 0  # the iteration that found out_nodes
    fallback = None  # best incomplete walk
    fallback_cost = math.inf
    history = []
    tau_pow = np.empty_like(tau)  # tau^alpha, rewritten in place each iteration

    for it in range(params.n_iterations):
        # the power of two that brings the largest trail into [0.5, 1): exact,
        # so no choice changes, and tau^alpha can only underflow; trails that
        # overflowed (a tiny q or rho) take the limit, 1 where infinite, else 0
        top = float(tau.max())
        if math.isinf(top):
            np.isinf(tau, out=tau_pow, casting="unsafe")
        else:
            np.ldexp(tau, -math.frexp(top)[1], out=tau_pow)
        if params.alpha != 1.0:
            np.power(tau_pow, params.alpha, out=tau_pow)
        paths, lengths, closed = _construct_batch(space, n_ants, tau_pow, draw)
        tours = paths[closed]
        costs = _energy(space, tours)
        if costs.size:
            k = int(np.argmin(costs))  # first of equals, as a scan in ant order
            if costs[k] < best_cost:
                best, best_cost, polished = tours[k:k + 1], float(costs[k]), False
        # out_cost <= best_cost always, so only a new colony best can beat the
        # result; the last iteration polishes the colony's best whatever its cost
        if not polished and (best_cost < out_cost or it == params.n_iterations - 1):
            nodes, cost = _two_opt(space, best[0], best_cost)
            polished = True
            if cost < out_cost:
                out_nodes, out_cost, best_iteration = nodes, cost, it + 1
        walk_costs = {}
        if trace is not None or out_nodes is None:
            for k in np.nonzero(~closed)[0].tolist():
                walk = paths[k, :lengths[k]]
                walk_costs[k] = cost = _energy(space, walk)
                if cost < fallback_cost:
                    fallback, fallback_cost = walk, cost
        history.append(out_cost)

        # AS: every closed tour deposits q / cost; MMAS: the colony's best
        # deposits 1 / best cost. Edges of walk 0 forward, then backward,
        # then walk 1, ...: each trail cell receives its deposits in walk order
        tau *= (1.0 - rho)
        if params.variant == "AS":
            walks, amounts = tours, q / costs
        else:
            walks, amounts = best, np.full(len(best), 1.0 / best_cost)
        a, b = walks[:, :-1], walks[:, 1:]
        np.add.at(tau, (np.hstack([a, b]).ravel(), np.hstack([b, a]).ravel()),
                  np.repeat(amounts, 2 * a.shape[1]))
        bounds = None
        if params.variant == "MMAS":
            tau_max = 1.0 / (rho * (best_cost if best.size else q))
            tau_min = tau_max / (2.0 * n)
            np.clip(tau, tau_min, tau_max, out=tau)
            bounds = (tau_min, tau_max)
        if trace is not None:
            closed_costs = iter(costs.tolist())
            ants = [(tuple(paths[k, :lengths[k]].tolist()),
                     next(closed_costs) if closed[k] else walk_costs[k], bool(closed[k]))
                    for k in range(n_ants)]
            trace(it, tau.copy(), bounds, ants)

    tour = Tour((g.home,), 0.0, 0.0, 0.0, False)  # no ant left home
    if out_nodes is not None:
        tour = tour_cost(g, model, out_nodes)
        if not tour.is_valid:
            raise AssertionError("constructed tour failed the structural check")
    elif fallback is not None:
        tour = tour_cost(g, model, fallback)
    return SolverRun(tour, tuple(history), params.seed, best_iteration)
