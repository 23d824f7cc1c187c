#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs every workload (or the ones named) in two sets of runs, each run with
its own seed, and prints per end-to-end metric the median and quartiles of
each set, the spread (interquartile distance over the median) and the
set-to-set difference of the medians (positive = worse), both against the
metric's bound from BENCHMARK.json.

  python3 perfbench/steadiness.py                      # 2 sets x 10 runs
  python3 perfbench/steadiness.py --runs 5 --workloads advise_mix

A metric passes when both spreads stay within its bound and the two
medians differ by at most the bound, in either direction: two sets of the
same code should agree. The target is a spread below a third of the bound.
Exit code 1 if any metric fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: outputs incorrect" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (default 10)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    failures = 0
    for workload in args.workloads:
        sets = []
        for s in range(2):
            base = args.first_seed + s * args.runs
            runs = [run_once(workload, base + i, args.seconds)
                    for i in range(args.runs)]
            sets.append(runs)
        print("\n%s: 2 sets x %d runs, %d s each" %
              (workload, args.runs, args.seconds))
        print("  %-24s %6s %14s %14s %8s %8s %9s  %s" %
              ("metric", "bound", "median A", "median B", "spread A",
               "spread B", "A->B", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summarize([r[name] for r in sets[0]])
            b = summarize([r[name] for r in sets[1]])
            sign = 1.0 if m["better"] == "lower" else -1.0
            diff = sign * (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
            ok = max(a[3], b[3]) <= bound and abs(diff) <= bound
            target = max(a[3], b[3]) <= bound / 3.0
            verdict = ("ok" if target else "ok (spread > bound/3)") \
                if ok else "FAIL"
            failures += 0 if ok else 1
            print("  %-24s %6.3f %14.6g %14.6g %8.4f %8.4f %+9.4f  %s" %
                  (name, bound, a[0], b[0], a[3], b[3], diff, verdict))
            print("  %-24s %6s q1..q3 A [%.6g, %.6g]  B [%.6g, %.6g]" %
                  ("", "", a[1], a[2], b[1], b[2]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
