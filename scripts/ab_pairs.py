#!/usr/bin/env python3
"""Time two checkouts of this repository against each other in alternating pairs.

For each workload and seed, runs ``perfbench/run.py`` once per pair in each
checkout, each run in a fresh process, and alternates which checkout goes
first (parent then change, change then parent, ...) so that a drift in machine
speed falls on both sides.  Prints, for every end-to-end metric named in
``BENCHMARK.json``, the per-run values, the two medians, their ratio (change
over parent), the distance between the parent's quartiles and the number of
pairs in which the change did better.  A metric whose change median is worse
than the parent median by more than its ``bound`` there is marked
``BOUND BREACH``.  A metric is marked ``GAIN`` when, over at least ten pairs,
the change did better in at least nine tenths of them (ties count for
neither side) and its median is better than the parent median by more than
the parent IQR.  A metric is marked ``UNRESOLVED`` when the parent IQR is
wider than its ``bound`` relative to the parent median, so the runs cannot
tell a change within the bound from one past it, unless every run of the
change is better than every run of the parent.  A workload is marked
``FAILED MORE`` when the change's share of failed ops (``failed`` over
``attempted``, summed over its runs) is larger than the parent's.

Usage: python3 scripts/ab_pairs.py PARENT CHANGE [--workloads theorem1,exactness]
           [--seeds 0,17] [--pairs 3] [--seconds 10]

PARENT and CHANGE are checkout roots, for example a ``git clone`` of the
parent commit and this repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The result record of one ``perfbench/run.py`` run: its last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return parse_result(done.stdout)


def run_pairs(checkouts: dict, workload: str, seed: int, pairs: int, seconds: float) -> dict:
    """``pairs`` results per side, the side that runs first alternating."""
    results = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_once(checkouts[side], workload, seed, seconds)
            results[side].append(result)
            print(f"  {workload} seed={seed} pair {i + 1}/{pairs} {side}: "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr)
    return results


def breaches(parent: float, change: float, better: str, bound: float) -> bool:
    """Whether the change is worse than the parent by more than the relative bound."""
    if better == "higher":
        return change < parent * (1 - bound)
    return change > parent * (1 + bound)


def gains(wins: int, pairs: int, parent: float, change: float, better: str, iqr: float) -> bool:
    """Whether the change wins at least nine tenths of ten or more pairs and
    its median beats the parent median by more than the parent IQR."""
    margin = change - parent if better == "higher" else parent - change
    return pairs >= 10 and 10 * wins >= 9 * pairs and margin > iqr


def unresolved(parent: list, change: list, better: str, iqr: float, bound: float) -> bool:
    """Whether the parent runs spread wider than the relative bound (their IQR
    against their median) and some change run is no better than some parent run."""
    if iqr <= bound * abs(statistics.median(parent)):
        return False
    if better == "higher":
        return min(change) <= max(parent)
    return max(change) >= min(parent)


def failed_share(runs: list) -> float:
    """Failed over attempted ops, summed over the runs of one side."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def report(rows, metrics) -> list[str]:
    """Report lines for ``rows`` of (workload, seed, results by side), over the
    end-to-end ``metrics`` given as (name, "higher" or "lower" is better), or
    as (name, better, bound) to mark a change worse than its parent by more
    than the relative bound, and a metric the runs leave unresolved.  Pair i
    compares run i of each side."""
    lines = []
    for workload, seed, results in rows:
        parent, change = results["parent"], results["change"]
        failed = [sum(r["failed"] for r in results[side]) for side in SIDES]
        lines.append(f"{workload} seed={seed}: {len(parent)} pairs, "
                     f"failed ops {failed[0]} -> {failed[1]}")
        for name, better, *bound in metrics:
            a = [r["metrics"][name]["value"] for r in parent]
            b = [r["metrics"][name]["value"] for r in change]
            mid_a, mid_b = statistics.median(a), statistics.median(b)
            quartiles = statistics.quantiles(a, n=4) if len(a) > 1 else [mid_a, mid_a, mid_a]
            wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))
            ratio = f"x{mid_b / mid_a:.3f}" if mid_a else "x-"
            iqr = quartiles[2] - quartiles[0]
            lines.append(f"  {name:<11} {'/'.join(f'{v:.4g}' for v in a)} -> "
                         f"{'/'.join(f'{v:.4g}' for v in b)}  median {mid_a:.4g} -> {mid_b:.4g} "
                         f"{ratio}, parent IQR {iqr:.3g}  "
                         f"({better} is better; change better in {wins}/{len(a)})"
                         + ("  GAIN" if gains(wins, len(a), mid_a, mid_b, better, iqr) else "")
                         + (f"  BOUND BREACH: worse by more than {bound[0]:g}"
                            if bound and breaches(mid_a, mid_b, better, bound[0]) else "")
                         + (f"  UNRESOLVED: parent IQR wider than {bound[0]:g} of its median"
                            if bound and unresolved(a, b, better, iqr, bound[0]) else ""))
        shares = [failed_share(results[side]) for side in SIDES]
        if shares[1] > shares[0]:
            lines.append(f"  FAILED MORE: share of failed ops {shares[0]:.3g} -> {shares[1]:.3g}")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"{side} checkout {path} has no perfbench/run.py")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    rows = [(workload, seed, run_pairs(checkouts, workload, seed, args.pairs, args.seconds))
            for workload in args.workloads.split(",")
            for seed in (int(s) for s in args.seeds.split(","))]
    print("\n".join(report(rows, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
