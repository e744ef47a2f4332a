#!/usr/bin/env python3
"""Record a perf trajectory file (``BENCH_<n>.json``) from two checkouts.

    python3 tools/bench_record.py PARENT CHANGE OUT \
        [--claim WORKLOAD SEED PAIRS METRIC] [--note TEXT]

PARENT and CHANGE are source checkouts of the commit before a change and of
the change itself.  In each, ``perfbench/run.py`` runs untraced (``--trace
0``, its default length) on every workload of ``BENCHMARK.json`` for seeds
1-3; within each workload the two sides alternate, seed by seed, which goes
first.  ``--claim`` adds PAIRS alternating untraced pairs of WORKLOAD on
SEED, which should be a seed the change was not developed on, and one traced
run (``--trace 1``, seed 1) of that workload on each side.  Every run's
``env`` line and last-line JSON go into OUT with a summary: each side's
median and quartiles per workload and metric, and for the claim the pairs the
change won on METRIC, an end-to-end metric of ``BENCHMARK.json`` whose
``better`` direction decides a win.  Each side's ``peak_rss_mb`` also carries
the median number of requests its runs ``attempted``, in the seed summary
and, when METRIC is ``peak_rss_mb``, in the claim: the harness keeps samples
per finished request, so a faster side holds more of them.  A run that exited
non-zero or reported ``correct`` other than true still enters the medians,
but each workload's ``failed_runs`` counts them per side, and a claim holds
only when none of its runs failed.  A run that left no result line is
recorded with ``result: null``, counted in ``failed_runs`` and left out of
the medians: ``perfbench/run.py`` stopped before measuring, or it ran past
``RUN_TIMEOUT_S`` and was killed (``exit: null``).  ``--note`` stores TEXT
as the file's ``note``: where the measured change comes from.  The claim's
four arguments are checked before the first run: a workload of
``BENCHMARK.json``, an integer SEED, an integer PAIRS of at least 1 and an
end-to-end METRIC.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        # the output captured before the kill is bytes even in text mode
        stdout, stderr, code = (
            (exc.stdout or b"").decode(errors="replace"),
            f"timed out after {RUN_TIMEOUT_S} s", None)
    lines = stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):      # no output, or no result line
        result = None
    if result is None:
        print(f"{checkout}: {workload} seed {seed} left no result "
              f"(exit {code}): {stderr.strip()[-300:]}", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "exit": code, "result": result}


def pair(checkouts: dict, workload: str, seed: int, trace: int,
         parent_first: bool, metric: str = "ops_per_s") -> list[dict]:
    order = SIDES if parent_first else SIDES[::-1]
    runs = []
    for side in order:
        rec = run(checkouts[side], workload, seed, trace)
        runs.append({"side": side, **rec})
        # a traced run reports per-layer metrics only, so it shows its gate
        result = rec["result"]
        if result is None:
            shown = f"no result (exit {rec['exit']})"
        elif trace:
            shown = (f"exit {rec['exit']}, correct "
                     f"{json.dumps(result.get('correct'))}")
        else:
            shown = json.dumps(result["metrics"].get(metric))
        print(f"{side:6} {workload:13} seed {seed} trace {trace}: {shown}",
              flush=True)
    return runs


def schedule(workloads: list[str]) -> list[tuple[int, str, bool]]:
    """The seed pairs as ``(seed, workload, parent_first)``, seed by seed:
    each workload's pairs alternate which side runs first from one seed to
    the next, so no workload runs all its pairs in one side order."""
    return [(seed, workload, (i + j) % 2 == 0)
            for i, seed in enumerate(SEEDS)
            for j, workload in enumerate(workloads)]


def failed(rec: dict) -> bool:
    """The run exited non-zero, left no result, or did not report its
    outputs correct."""
    return (rec["exit"] != 0 or rec["result"] is None
            or rec["result"]["correct"] is not True)


def spread(values: list[float]) -> dict:
    """Median and quartiles; all None when no run left a value."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3 or [None] * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    table, attempted, failures = {}, {}, {}
    for rec in runs:
        if rec["trace"] == 0:
            per_side = failures.setdefault(rec["workload"],
                                           dict.fromkeys(SIDES, 0))
            per_side[rec["side"]] += failed(rec)
            if rec["result"] is None:
                continue
            metrics = rec["result"]["metrics"]
            for name, m in metrics.items():
                (table.setdefault(rec["workload"], {}).setdefault(name, {})
                 .setdefault(rec["side"], []).append(m["value"]))
            (attempted.setdefault(rec["workload"], {})
             .setdefault(rec["side"], []).append(rec["result"]["attempted"]))
    summary = {w: {name: {side: spread(v) for side, v in sides.items()}
                   for name, sides in metrics.items()}
               for w, metrics in table.items()}
    for w, sides in attempted.items():
        for side, counts in sides.items():
            summary[w]["peak_rss_mb"][side]["attempted"] = (
                statistics.median(counts))
    for w, per_side in failures.items():
        summary.setdefault(w, {})["failed_runs"] = per_side
    return summary


def claim_summary(claim_runs: list[dict], metric: str, better: str) -> dict:
    by_pair = [claim_runs[i:i + 2] for i in range(0, len(claim_runs), 2)]
    # each pair's values, signed so that larger is better
    sign = 1 if better == "higher" else -1
    # a run that left no result has no value, and its pair no winner
    vals = [{r["side"]: r["result"]["metrics"][metric]["value"]
             for r in p if r["result"] is not None} for p in by_pair]
    parent = spread([v["parent"] for v in vals if "parent" in v])
    change = spread([v["change"] for v in vals if "change" in v])
    wins = sum(sign * (v["change"] - v["parent"]) > 0
               for v in vals if len(v) == 2)
    if metric == "peak_rss_mb":
        for side, stats in zip(SIDES, (parent, change)):
            counts = [r["result"]["attempted"] for r in claim_runs
                      if r["side"] == side and r["result"] is not None]
            stats["attempted"] = statistics.median(counts) if counts else None
    failures = dict.fromkeys(SIDES, 0)
    for rec in claim_runs:
        failures[rec["side"]] += failed(rec)
    measured = parent["n"] > 0 and change["n"] > 0
    iqr = parent["q3"] - parent["q1"] if measured else None
    return {"metric": metric, "better": better, "pairs": len(vals),
            "change_wins": wins, "parent": parent, "change": change,
            "median_ratio": (change["median"] / parent["median"]
                             if measured else None),
            "parent_iqr": iqr, "failed_runs": failures,
            "holds": (measured and not any(failures.values())
                      and wins >= 0.9 * len(vals) and sign * (change["median"]
                      - parent["median"]) > iqr)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--claim", nargs=4, metavar=("WORKLOAD", "SEED",
                                                     "PAIRS", "METRIC"))
    parser.add_argument("--note")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim:
        workload, seed, pairs, metric = args.claim
        if workload not in workloads:
            parser.error(f"--claim workload must be one of {workloads}")
        try:
            seed, pairs = int(seed), int(pairs)
        except ValueError:
            parser.error("--claim SEED and PAIRS must be integers")
        if pairs < 1:
            parser.error("--claim PAIRS must be at least 1")
        if metric not in better:
            parser.error(f"--claim metric must be one of {sorted(better)}")
        args.claim = workload, seed, pairs, metric

    runs = []
    for seed, workload, parent_first in schedule(workloads):
        runs += pair(checkouts, workload, seed, 0, parent_first=parent_first)
    doc = {"runs": runs, "summary": summarize(runs)}
    if args.note:
        doc["note"] = args.note
    if args.claim:
        workload, seed, pairs, metric = args.claim
        claim_runs = []
        for i in range(pairs):
            claim_runs += pair(checkouts, workload, seed, 0,
                               parent_first=i % 2 == 0, metric=metric)
        traced = pair(checkouts, workload, 1, 1, parent_first=True)
        doc["claim"] = {"workload": workload, "seed": seed,
                        "runs": claim_runs,
                        **claim_summary(claim_runs, metric, better[metric]),
                        "traced": traced}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
