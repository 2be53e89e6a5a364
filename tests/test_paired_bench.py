"""tools/paired_bench.py: the spread and the claim it records, on synthetic runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measured(bench, monkeypatch, parent, change, correct=True, failed=0, digests=None,
             metric="run_s", work=None, traced_digests=None):
    """measure() over len(parent) seeds, each timed run_once replaced by the
    next value of its side for metric, the parent completing 2 rounds a run
    and the change 8; the change's last run carries correct and failed, and
    digests, when given, are the change's per pair. Each traced run counts
    {"calls": 5, "steps": 9}; work, when given, is the change's per pair
    instead, and traced_digests the change's traced digests per pair (by
    default its timed run's)."""
    values = {"parent": iter(parent), "change": iter(change)}
    last = len(change) - 1
    seen = {"parent": 0, "change": 0}
    seen_traced = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed, seconds, trace=0):
        side = checkout.name
        digest = digests[seed - 1] if side == "change" and digests else f"d{seed}"
        if trace:
            k = seen_traced[side]
            seen_traced[side] = k + 1
            counts = work[k] if side == "change" and work else {"calls": 5, "steps": 9}
            if side == "change" and traced_digests:
                digest = traced_digests[k]
            return {"metrics": counts, "counts": counts, "digest": digest,
                    "rounds": 2, "attempted": 10, "failed": 0, "correct": True}
        k = seen[side]
        seen[side] = k + 1
        at_last = side == "change" and k == last
        return {"metrics": {metric: next(values[side])}, "counts": {}, "digest": digest,
                "rounds": 2 if side == "parent" else 8,
                "attempted": 10, "failed": failed if at_last else 0,
                "correct": correct or not at_last}

    monkeypatch.setattr(bench, "run_once", run_once)
    dirs = {side: Path(side) for side in ("parent", "change")}
    return {"workloads": {"w": bench.measure(dirs, "w", list(range(1, len(parent) + 1)), 1.0)}}


def test_spread_gives_median_and_inclusive_quartiles(bench):
    assert bench.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_each_run_records_the_rounds_perfbench_completed(bench, monkeypatch):
    stdout = ("# sweep-survey seed 1: 7 untraced + 0 traced rounds, 42 plans, "
              "digest 95ac717afe0c8ef3\n"
              + json.dumps({"correct": True, "attempted": 42, "failed": 0,
                            "metrics": {"run_s": {"value": 1.5, "unit": "s"}}}) + "\n")
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda args, **kw: subprocess.CompletedProcess(args, 0, stdout, ""))
    run = bench.run_once(Path("change"), "sweep-survey", 1, 30.0)
    assert (run["rounds"], run["digest"], run["metrics"]) == (7, "95ac717afe0c8ef3", {"run_s": 1.5})
    result = measured(bench, monkeypatch, [2.0] * 3, [1.0] * 3)
    assert result["workloads"]["w"]["rounds"] == {"parent": [2, 2, 2], "change": [8, 8, 8]}
    assert result["workloads"]["w"]["rounds_median"] == {"parent": 2, "change": 8}


def test_the_median_rounds_skip_runs_whose_output_did_not_name_them(bench):
    assert bench.median_rounds([{"rounds": 3}, {"rounds": None}, {"rounds": 6}]) == 4.5
    assert bench.median_rounds([{"rounds": None}]) is None


def test_a_flagged_peak_rss_shows_the_median_rounds_beside_it(bench, monkeypatch, capsys):
    parent = [40.0 + 0.01 * k for k in range(10)]
    wide = [34.0, 36.0, 36.0, 36.0, 40.0, 40.0, 44.0, 44.0, 44.0, 46.0]
    spec = {"end_to_end": [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    cases = {  # name: (parent runs, change runs)
        "grew": (parent, [1.2 * p for p in parent]),
        "spread": (wide, wide[::-1]),  # pair ratios 0.74 to 1.35
        "steady": (parent, parent),
    }
    result = {"workloads": {
        name: measured(bench, monkeypatch, p, c, metric="peak_rss_mb")["workloads"]["w"]
        for name, (p, c) in cases.items()}}
    bench.regressions(result, spec)
    bench.report(result)
    err = capsys.readouterr().err.splitlines()
    assert "peak_rss_mb regressed on grew: median 40.045 -> 48.054 MB over 2.0 -> 8.0 rounds" in err
    assert "peak_rss_mb unresolved on spread: median 40 -> 40 MB over 2.0 -> 8.0 rounds" in err
    assert not [line for line in err if "steady" in line]


def test_a_clear_gain_on_correct_runs_is_met(bench, monkeypatch):
    parent = [2.0, 2.1, 2.2, 2.0, 2.1, 2.3, 2.0, 2.2, 2.1, 2.0]
    result = measured(bench, monkeypatch, parent, [p - 0.3 for p in parent])
    assert result["workloads"]["w"]["same_tours"]
    got = bench.claim(result, "w", "run_s", "lower")
    assert got["met"] and got["correct"] and got["change_better"] == 10
    assert got["parent_iqr"] == pytest.approx(0.175)  # inclusive quartiles 2.0 and 2.175


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 2)])
def test_a_claim_counts_only_on_correct_runs(bench, monkeypatch, correct, failed):
    parent = [2.0 + 0.01 * k for k in range(10)]
    result = measured(bench, monkeypatch, parent, [p - 0.5 for p in parent],
                      correct=correct, failed=failed)
    got = bench.claim(result, "w", "run_s", "lower")
    assert got["change_better"] == 10 and not got["correct"] and not got["met"]


def test_ties_are_not_wins_in_either_direction(bench, monkeypatch):
    parent = [2.0 + 0.01 * k for k in range(10)]
    change = [p - 0.5 for p in parent[:8]] + parent[8:]  # two pairs tie
    result = measured(bench, monkeypatch, parent, change)
    m = result["workloads"]["w"]["metrics"]["run_s"]
    assert (m["change_lower"], m["ties"]) == (8, 2)
    lower = bench.claim(result, "w", "run_s", "lower")
    assert lower["change_better"] == 8 and not lower["met"]
    higher = bench.claim(result, "w", "run_s", "higher")
    assert higher["change_better"] == 0 and not higher["met"]


def test_a_higher_is_better_metric_counts_the_pairs_the_change_raised(bench, monkeypatch):
    parent = [0.90, 0.91, 0.92, 0.90, 0.91, 0.93, 0.90, 0.92, 0.91, 0.90]
    change = [p + 0.05 for p in parent]
    result = measured(bench, monkeypatch, parent, change)
    assert bench.claim(result, "w", "run_s", "higher")["met"]
    assert not bench.claim(result, "w", "run_s", "lower")["met"]
    # raised in nine pairs but by less than the parent's IQR in the median
    small = measured(bench, monkeypatch, parent, [p + 0.001 for p in parent[:9]] + parent[9:])
    got = bench.claim(small, "w", "run_s", "higher")
    assert got["change_better"] == 9 and not got["met"]


def test_same_tours_compares_every_seeds_digest(bench, monkeypatch):
    parent = [2.0] * 3
    same = measured(bench, monkeypatch, parent, parent, digests=["d1", "d2", "d3"])
    assert same["workloads"]["w"]["same_tours"]
    moved = measured(bench, monkeypatch, parent, parent, digests=["d1", "x", "d3"])
    assert not moved["workloads"]["w"]["same_tours"]


@pytest.mark.parametrize("better,within,past", [("lower", 1.15, 1.25), ("higher", 0.85, 0.75)])
def test_a_median_worse_by_more_than_its_bound_regresses(bench, monkeypatch, better, within,
                                                         past):
    parent = [2.0 + 0.01 * k for k in range(10)]
    spec = {"end_to_end": [{"name": "run_s", "better": better, "bound": 0.2}]}
    result = {"workloads": {
        name: measured(bench, monkeypatch, parent, [factor * p for p in parent])["workloads"]["w"]
        for name, factor in (("within", within), ("past", past))}}
    bench.regressions(result, spec)
    assert not result["workloads"]["within"]["metrics"]["run_s"]["regressed"]
    assert result["workloads"]["past"]["metrics"]["run_s"]["regressed"]
    assert not result["no_regression"]
    del result["workloads"]["past"]
    bench.regressions(result, spec)
    assert result["no_regression"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_spread_wider_than_the_bound_is_unresolved(bench, monkeypatch, better):
    # parent quartiles 1.8 and 2.2 about a median of 2.0: an IQR of 0.4, wider
    # than the 0.1 x 2.0 bound, as when each seed lays its own farm
    parent = [1.6, 1.8, 1.8, 1.8, 2.0, 2.0, 2.2, 2.2, 2.2, 2.4]
    spec = {"end_to_end": [{"name": "run_s", "better": better, "bound": 0.1}]}
    sign = 1 if better == "lower" else -1
    narrow = [2.0 + 0.001 * k for k in range(10)]
    cases = {  # name: (parent runs, change runs)
        "shuffled": (parent, parent[::-1]),  # pair ratios 0.67 to 1.5
        "better in every pair": (parent, [2.0 - sign * (0.5 + k % 2) for k in range(10)]),
        "tight ratios": (parent, [1.02 * p for p in parent]),
        "narrow": (narrow, narrow),
    }
    result = {"workloads": {
        name: measured(bench, monkeypatch, p, c)["workloads"]["w"]
        for name, (p, c) in cases.items()}}
    bench.regressions(result, spec)
    got = {name: w["metrics"]["run_s"] for name, w in result["workloads"].items()}
    assert got["shuffled"]["unresolved"] and not got["shuffled"]["regressed"]
    assert got["shuffled"]["ratio"]["q3"] - got["shuffled"]["ratio"]["q1"] > 0.1
    # ratios 0.21 to 0.94 (lower) or 1.14 to 1.94 (higher), each pair better
    better_ratio = got["better in every pair"]["ratio"]
    assert better_ratio["q3"] - better_ratio["q1"] > 0.1
    assert not got["better in every pair"]["unresolved"]
    assert not got["tight ratios"]["unresolved"]  # every ratio 1.02
    assert got["tight ratios"]["ratio"] == pytest.approx({"median": 1.02, "q1": 1.02, "q3": 1.02})
    assert not got["narrow"]["unresolved"]
    assert result["no_regression"]  # unresolved is not regressed


def test_pairs_whose_parent_reads_zero_have_no_ratio(bench, monkeypatch):
    spec = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.1}]}
    result = {"workloads": {
        "some": measured(bench, monkeypatch, [0.0, 1.0, 2.0], [5.0, 1.0, 2.0])["workloads"]["w"],
        "none": measured(bench, monkeypatch, [0.0] * 3, [0.0] * 3)["workloads"]["w"]}}
    bench.regressions(result, spec)
    some, none = (result["workloads"][k]["metrics"]["run_s"] for k in ("some", "none"))
    assert some["ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.0} and not some["unresolved"]
    assert none["ratio"] is None and not none["unresolved"]


def test_each_run_keeps_the_metrics_whose_unit_is_count(bench, monkeypatch):
    stdout = ("# sweep-survey seed 1: 1 untraced + 1 traced rounds, 12 plans, digest abc\n"
              + json.dumps({"correct": True, "attempted": 12, "failed": 0, "metrics": {
                  "run_s": {"value": 1.5, "unit": "s"},
                  "routegraph.pairs": {"value": 40, "unit": "count"},
                  "render.svg_bytes": {"value": 9, "unit": "bytes"}}}) + "\n")
    calls = []

    def run(args, **kw):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout, "")

    monkeypatch.setattr(bench.subprocess, "run", run)
    run = bench.run_once(Path("change"), "sweep-survey", 1, 1.0, trace=1)
    assert run["counts"] == {"routegraph.pairs": 40}
    assert calls[0][-4:] == ["--seconds", "1.0", "--trace", "1"]


def test_traced_runs_follow_each_timed_pair_in_its_order(bench, monkeypatch):
    order = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        order.append((seed, checkout.name, seconds, trace))
        return {"metrics": {"run_s": 1.0}, "counts": {"calls": 5} if trace else {},
                "digest": "d", "rounds": 1, "attempted": 1, "failed": 0, "correct": True}

    monkeypatch.setattr(bench, "run_once", run_once)
    w = bench.measure({side: Path(side) for side in ("parent", "change")}, "w", [1, 2], 30.0)
    assert order == [(1, "parent", 30.0, 0), (1, "change", 30.0, 0),
                     (1, "parent", 1.0, 1), (1, "change", 1.0, 1),
                     (2, "change", 30.0, 0), (2, "parent", 30.0, 0),
                     (2, "change", 1.0, 1), (2, "parent", 1.0, 1)]
    assert w["work"] == {side: [{"calls": 5}] * 2 for side in ("parent", "change")}
    assert w["same_work"] and w["work_moved"] == []
    assert list(w["metrics"]) == ["run_s"]  # the timed runs' metrics only


def test_same_work_names_the_counts_that_moved_on_any_seed(bench, monkeypatch, capsys):
    parent = [2.0] * 3
    base = {"calls": 5, "steps": 9}
    moved = measured(bench, monkeypatch, parent, parent,
                     work=[base, {"calls": 5, "steps": 8}, {"calls": 5}])["workloads"]["w"]
    assert not moved["same_work"] and moved["work_moved"] == ["steps"]
    assert moved["all_runs_correct"]  # work that moved is no fault in itself
    added = measured(bench, monkeypatch, parent, parent,
                     work=[{**base, "hops": 0}, base, base])["workloads"]["w"]
    assert added["work_moved"] == ["hops"]
    result = {"workloads": {"moved": moved, "added": added}, "no_regression": True}
    bench.report(result)
    err = capsys.readouterr().err.splitlines()
    assert "work moved on moved: steps" in err and "work moved on added: hops" in err


def test_a_traced_run_off_its_sides_digest_is_incorrect(bench, monkeypatch):
    parent = [2.0 + 0.01 * k for k in range(10)]
    change = [p - 0.5 for p in parent]
    same = measured(bench, monkeypatch, parent, change)
    assert same["workloads"]["w"]["all_runs_correct"]
    assert bench.claim(same, "w", "run_s", "lower")["met"]
    off = measured(bench, monkeypatch, parent, change,
                   traced_digests=[f"d{seed}" for seed in range(1, 10)] + ["x"])
    assert off["workloads"]["w"]["same_tours"]  # the timed digests still agree
    assert not off["workloads"]["w"]["all_runs_correct"]
    assert not bench.claim(off, "w", "run_s", "lower")["met"]
