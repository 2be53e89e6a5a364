"""Span recording around the calls the pipeline makes between its modules,
plus the arithmetic the benchmark's metrics are built from.

Wrappers are installed on the module attributes the pipeline calls through
(for example ``farmpatrol.fleet.build_graph``), so the program itself is
unchanged. Spans are kept in memory as ``[name, start, end, parent, plan]``
rows and written once, at the end of a traced run.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

# CPU seconds calibration() takes on an idle core of the machine the benchmark
# was written on (2-vCPU Intel Xeon virtual machine); load-adjusted times
# read as seconds on that machine, unloaded.
CALIBRATION_REF_S = 0.012


def clock() -> float:
    """CPU seconds used so far by this process and its reaped children.

    The benchmark times with CPU time, not wall time: on a shared machine a
    single-threaded run loses the core to other tenants for 10-25% of its wall
    time, which CPU time does not count. Counting children keeps work moved
    into subprocesses visible."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def calibration() -> float:
    """CPU seconds a fixed mix of the planner's kinds of work takes right now:
    row gathers and cumulative sums on (50, 160) arrays, as in ant
    construction, and scalar distance arithmetic, as in clearance tests.

    Other tenants of a shared machine slow the planner and this mix alike,
    by up to 1.6x for minutes at a time; the benchmark divides each timed
    step by the calibration measured around it (see load_factors)."""
    rng = np.random.default_rng(0)
    table = rng.random((160, 160))
    rows = rng.integers(0, 160, 50)
    start = clock()
    acc = 0.0
    for step in range(200):
        w = table[rows] * table[rows[::-1]]
        acc += float(np.cumsum(w, axis=1)[:, -1].sum())
        for k in range(60):
            x, y = k * 0.37 + step, k * 1.3 - step
            d = math.hypot(x - 3.0, y + 1.0)
            acc += max(0.0, d - 2.5) if x > y else min(d, 1.0)
    return clock() - start


def load_factors(calibrations) -> list[float]:
    """Per step, CALIBRATION_REF_S over the mean of the calibrations taken
    just before and just after it; multiplying a step's time by its factor
    gives its load-adjusted time. calibrations has one entry more than there
    are steps."""
    return [2.0 * CALIBRATION_REF_S / (before + after)
            for before, after in zip(calibrations, calibrations[1:])]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def first_within(history, target: float) -> int | None:
    """Index of the first iteration whose best cost is at or below target."""
    for k, cost in enumerate(history):
        if cost <= target:
            return k
    return None


def time_to_target(plan_s: float, k: int, n_iterations: int) -> float:
    """Time until iteration k (0-based) of n_iterations has finished, taking
    every iteration to cost the same share of the plan's time."""
    if not 0 <= k < n_iterations:
        raise ValueError(f"iteration {k} outside 0..{n_iterations - 1}")
    return plan_s * (k + 1) / n_iterations


def fleet_history(runs) -> list[float]:
    """Per-iteration best fleet cost: the drones' best-cost histories summed."""
    return [sum(costs) for costs in zip(*(run.best_cost_history for run in runs))]


def best_iteration(history) -> int:
    """First iteration at which the final best cost was reached."""
    return list(history).index(min(history))


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, plan in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i])
            for i, (name, start, end, parent, plan) in enumerate(spans)]


class Tracer:
    """In-memory span and counter recorder for one traced round."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.solves: list[dict] = []     # per solve: start, iteration stamps, ants
        self.graphs: list[tuple[int, int]] = []  # per build_graph: nodes, edges
        self.plan = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, clock(), None, parent, self.plan])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._open.pop()

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def traced_solve(self, fn):
        """solve() with its public per-iteration trace hook attached."""
        timed = self.timed("aco.solve", fn)

        @functools.wraps(fn)
        def wrapper(g, model, params, trace=None):
            record = {"start": clock(), "stamps": [], "ants": 0, "complete": 0}
            self.solves.append(record)

            def on_iteration(it, tau, bounds, ants):
                record["stamps"].append(clock())
                record["ants"] += len(ants)
                record["complete"] += sum(1 for _, _, complete in ants if complete)
                if trace is not None:
                    trace(it, tau, bounds, ants)
            return timed(g, model, params, trace=on_iteration)
        return wrapper

    def traced_build_graph(self, fn):
        timed = self.timed("routegraph.build_graph", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            g = timed(*args, **kwargs)
            self.graphs.append((g.n_nodes, int(g.adj.sum()) // 2))
            return g
        return wrapper

    def layer_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def self_seconds_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span[0].split(".", 1)[0]] += own
        return out

    def tail_after_children(self, name: str) -> float:
        """Summed time each span called name spends after its last child ends."""
        last_child: dict[int, float] = {}
        for _, _, end, parent, _ in self.spans:
            if parent is not None:
                last_child[parent] = max(last_child.get(parent, end), end)
        return sum(end - last_child.get(i, start)
                   for i, (n, start, end, _, _) in enumerate(self.spans) if n == name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "plan"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
