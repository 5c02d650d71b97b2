"""Steadiness check: run one workload k times and report the spread.

    python3 perfbench/steady.py --workload opl-grid --runs 10 --sets 2

A set is k fresh ``run.py`` processes with seeds 1 to k, each as long as
``run_seconds`` in BENCHMARK.json, untraced. For every end-to-end metric the
command prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound: "ok" below a third of the bound, then "within
bound" or "TOO WIDE". It also prints each run's machine record, its wall time
and the share of failed operations, which must be the same in every run.
With ``--sets 2`` the same k runs are made twice, one set after the other,
and the command also prints by how much the second set's median is worse
than the first's, as a share of the first, next to the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[len("run-info "):]) for line in lines
                 if line.startswith("run-info ")), None)
    return info, json.loads(lines[-1]), wall


def verdict(share: float, bound: float) -> str:
    if share <= bound / 3:
        return "ok"
    return "within bound" if share <= bound else "TOO WIDE"


def run_set(workload: str, runs: int, seconds: int, spec: dict, label: str) -> dict:
    """Make one set of runs; print every run and the set's table; return the medians."""
    results, walls = [], []
    for seed in range(1, runs + 1):
        info, result, wall = run_once(workload, seed, seconds)
        results.append(result)
        walls.append(wall)
        print(f"{label}seed {seed}: run-info {json.dumps(info)}")
        print(f"{label}seed {seed}: wall {wall:.1f} s: {json.dumps(result)}", flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"\n{label}{workload}: {runs} runs of {seconds} s; "
          f"all correct: {all(r['correct'] for r in results)}; failed shares: {shares}; "
          f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    print(f"{'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    medians = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        medians[name] = median
        print(f"{name:14s} {metric['unit']:5s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {metric['bound']:6.2f} {verdict(spread, metric['bound'])}")
    return {"medians": medians, "shares": shares}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sets = []
    for k in range(args.sets):
        label = f"set {k + 1}: " if args.sets > 1 else ""
        sets.append(run_set(args.workload, args.runs, seconds, spec, label))
        print()
    if args.sets == 2:
        first, second = sets
        print(f"{args.workload}: set 2 against set 1; failed shares equal: "
              f"{first['shares'] == second['shares']}")
        print(f"{'metric':14s} {'set 1':>12s} {'set 2':>12s} {'worse by':>9s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = first["medians"][name], second["medians"][name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            print(f"{name:14s} {a:12.6g} {b:12.6g} {worse:9.4f} {metric['bound']:6.2f} "
                  f"{'ok' if worse <= metric['bound'] else 'TOO FAR'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
