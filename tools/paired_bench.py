"""Paired perfbench runs of a parent and a change checkout, recorded as JSON.

    python3 tools/paired_bench.py --parent PARENT_DIR --change CHANGE_DIR \
        --workload field-colony --seeds 1-10 --out BENCH_name.json \
        [--claim field-colony:run_s] [--label name] [--note text]

Each checkout is a full tree with its own perfbench/ and src/. For every
workload and seed this runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, T the run_seconds of the
change checkout's BENCHMARK.json, one run at a time, and the side
that goes first alternates from pair to pair (the parent on the first). The
output records, per workload and end-to-end metric, each side's median and
quartiles, the raw runs in pair order, change_lower (pairs in which the
change read lower) and ties, with every run's digest and correctness, and
same_tours (every seed's change digest equals the parent's), and rounds, the
rounds each run completed, and rounds_median, their median per side
(perfbench keeps every round's plans to the end of a run, so peak_rss_mb
grows with them; where peak_rss_mb regressed or is unresolved, stderr prints
those medians beside it). Every run
also records, per workload and end-to-end metric, regressed: the change's
median is worse than the parent's by more than the metric's BENCHMARK.json
bound, a share of the parent's median, in the metric's better direction;
ratio: the median and quartiles of the per-pair change/parent ratios, over
the pairs whose parent does not read 0 (None when every parent reads 0);
unresolved: the interquartile range of those ratios is wider than the
bound, and the change was not better in every pair (each seed lays its own
farm on some workloads, so the parent's own spread across seeds measures
the farms, not the noise); and no_regression: no metric regressed on any
workload. With
--claim W:metric it adds whether the change beat the parent in at least nine
of ten pairs, in the direction BENCHMARK.json gives, and by more than the
parent's interquartile range in the median; a claim on a workload with an
incorrect run or a failed operation is never met. An existing --out file
keeps the workloads this run does not measure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its metrics, digest, attempted/failed and correctness."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"paired_bench: no output from {checkout}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    found = re.search(r"digest (\w+)", proc.stdout)
    rounds = re.search(r"(\d+) untraced \+ (\d+) traced rounds", proc.stdout)
    return {"metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "digest": found.group(1) if found else None,
            "rounds": sum(map(int, rounds.groups())) if rounds else None,
            "attempted": out["attempted"], "failed": out["failed"],
            "correct": out["correct"] and proc.returncode == 0}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def median_rounds(runs: list[dict]) -> float | None:
    """The median of the rounds the runs completed, None when no run's
    output named them."""
    rounds = [r["rounds"] for r in runs if r["rounds"] is not None]
    return statistics.median(rounds) if rounds else None


def measure(dirs: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    runs = {side: [] for side in SIDES}
    first = {}
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first[seed] = order[0]
        for side in order:
            runs[side].append(run_once(dirs[side], workload, seed, seconds))
            print(f"{workload} seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        pairs = list(zip(values["parent"], values["change"]))
        metrics[name] = {
            "parent": spread(values["parent"]), "change": spread(values["change"]),
            "parent_runs": values["parent"], "change_runs": values["change"],
            "change_lower": sum(c < p for p, c in pairs), "ties": sum(c == p for p, c in pairs)}
    digests = {side: dict(zip(seeds, (r["digest"] for r in runs[side]))) for side in SIDES}
    return {
        "seeds": seeds, "pairs": len(seeds), "first_in_pair": first,
        "all_runs_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
        "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
        "rounds": {side: [r["rounds"] for r in runs[side]] for side in SIDES},
        "rounds_median": {side: median_rounds(runs[side]) for side in SIDES},
        "metrics": metrics,
        "digests": digests,
        "same_tours": digests["parent"] == digests["change"],
    }


def claim(result: dict, workload: str, metric: str, better: str) -> dict:
    """Whether the change beat the parent on one metric: in at least nine
    of ten pairs and by more than the parent's interquartile range in the
    median, with every run of both sides correct and no failed operation."""
    w = result["workloads"][workload]
    correct = w["all_runs_correct"] and not any(n for side in SIDES for n in w["failed"][side])
    m = w["metrics"][metric]
    parent, change = m["parent"], m["change"]
    iqr = parent["q3"] - parent["q1"]
    pairs = len(m["parent_runs"])
    wins = m["change_lower"] if better == "lower" else pairs - m["change_lower"] - m["ties"]
    gap = parent["median"] - change["median"]
    if better != "lower":
        gap = -gap
    return {"workload": workload, "metric": metric, "better": better,
            "parent_median": parent["median"], "change_median": change["median"],
            "parent_iqr": iqr, "change_better": wins, "pairs": pairs, "correct": correct,
            "met": correct and wins >= 0.9 * pairs and gap > iqr}


def regressions(result: dict, spec: dict) -> None:
    """Set ratio, regressed and unresolved on every end-to-end metric of
    every workload in result, from the bounds and directions of spec
    (BENCHMARK.json), and no_regression on result. A metric is unresolved
    when the interquartile range of its per-pair change/parent ratios is
    wider than the bound, unless the change was better in every pair: that
    spread hides a change the size of the bound."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    for w in result["workloads"].values():
        for name, m in w["metrics"].items():
            if name in end_to_end:
                bound = end_to_end[name]["bound"]
                sign = 1 if end_to_end[name]["better"] == "lower" else -1  # worse reads higher
                parent = m["parent"]["median"]
                m["regressed"] = sign * (m["change"]["median"] - parent) > bound * parent
                pairs = list(zip(m["parent_runs"], m["change_runs"]))
                ratios = [c / p for p, c in pairs if p != 0]
                ratio = m["ratio"] = spread(ratios) if ratios else None
                m["unresolved"] = (ratio is not None and ratio["q3"] - ratio["q1"] > bound
                                   and not all(sign * (c - p) < 0 for p, c in pairs))
    result["no_regression"] = not any(m.get("regressed") for w in result["workloads"].values()
                                      for m in w["metrics"].values())


def report(result: dict) -> None:
    """Print no_regression, each workload's unresolved metrics and, where
    peak_rss_mb regressed or is unresolved, the median rounds per side."""
    print(f"no_regression: {result['no_regression']}", file=sys.stderr)
    for workload, w in result["workloads"].items():
        unresolved = [name for name, m in w["metrics"].items() if m.get("unresolved")]
        if unresolved:
            print(f"unresolved on {workload}: {', '.join(unresolved)}", file=sys.stderr)
        rss = w["metrics"].get("peak_rss_mb", {})
        flags = [flag for flag in ("regressed", "unresolved") if rss.get(flag)]
        if flags:
            rounds = w.get("rounds_median", {})  # absent in files older than the field
            print(f"peak_rss_mb {' and '.join(flags)} on {workload}: median "
                  f"{rss['parent']['median']:g} -> {rss['change']['median']:g} MB over "
                  f"{rounds.get('parent')} -> {rounds.get('change')} rounds", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", help="workload:metric")
    ap.add_argument("--label")
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    result = json.loads(args.out.read_text()) if args.out.exists() else {}
    result.update({
        "command": f"python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}, numpy {importlib.metadata.version('numpy')}, "
                   f"{os.cpu_count()} CPUs, one run at a time",
        "method": "parent and change checkouts run alternately by tools/paired_bench.py, "
                  "the first of each pair alternating, parent first on the first pair",
    })
    if args.label:
        result["label"] = args.label
    if args.note:
        result["notes"] = args.note
    workloads = result.setdefault("workloads", {})
    for workload in args.workload:
        workloads[workload] = measure(dirs, workload, args.seeds, seconds)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    if args.claim:
        workload, metric = args.claim.split(":")
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}[metric]
        result["claim"] = claim(result, workload, metric, better)
        print(json.dumps(result["claim"]), file=sys.stderr)
    regressions(result, spec)
    report(result)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
