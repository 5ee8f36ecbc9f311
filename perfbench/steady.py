#!/usr/bin/env python3
"""Steadiness check: where the benchmark's bounds come from.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

Runs perfbench/run.py RUNS times per workload, each run with another
--seed, in two sets (the second set uses fresh seeds). For every
end-to-end metric it prints each set's median and its spread, the
distance between the first and third quartile (statistics.quantiles(n=4))
as a share of the median, and how far the second set's median moved
against the first in the metric's worse direction.

A metric FAILs when a spread exceeds its bound in BENCHMARK.json or its
median moved by more than the bound; the script then exits 1. A metric
that passes with a spread of a third of its bound or more is marked
"noisy": the bounds are meant to hold that margin.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=200, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    ok = True
    seed = args.first_seed
    for workload in args.workload or names:
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, args.seconds))
                print(f"   {workload} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
                seed += 1
            sets.append(runs)
        print(f"== {workload}: 2 sets x {args.runs} runs, {args.seconds:g} s each")
        print(f"   {'metric':<20} {'median':>12} {'spread':>8} {'2nd med':>12} "
              f"{'spread':>8} {'worse by':>9} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = spread([r[name] for r in sets[0]])
            second = spread([r[name] for r in sets[1]])
            worse = (second[0] - first[0]) / first[0] if first[0] else 0.0
            if metric["better"] == "higher":
                worse = -worse
            widest = max(first[1], second[1])
            good = widest <= bound and worse <= bound
            ok &= good
            mark = "  <-- FAIL" if not good else "  noisy" if widest >= bound / 3 else ""
            print(f"   {name:<20} {first[0]:>12.6g} {first[1]:>8.2%} {second[0]:>12.6g} "
                  f"{second[1]:>8.2%} {worse:>9.2%} {bound:>6.2f}{mark}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
