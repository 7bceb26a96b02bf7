#!/usr/bin/env python3
"""Repeatability self-check: the acceptance test the benchmark driver applies.

Runs BENCHMARK.json's command on every workload with ten seeds, twice, and
prints for each workload x end-to-end metric both medians, the spread of each
set (interquartile distance over the median, as `statistics.quantiles(values,
n=4)` gives the quartiles) and the metric's bound. Exits non-zero when a
spread (other than that of setup_s) exceeds its bound, when the second median
is worse than the first by more than the bound, or when a run fails.

    python3 pipeline_bench/check_spread.py [--sets 2] [--seeds 10] [--workload NAME]... [--raw]

Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = 0
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(1 + s * args.seeds, 1 + (s + 1) * args.seeds)
            sets.append([run(bench["command"], workload, seed, bench["run_seconds"]) for seed in seeds])
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(r[name] for r in runs) for runs in sets]
            spreads = [spread([r[name] for r in runs]) for runs in sets]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            over = (name != "setup_s" and max(spreads) > bound) or drift > bound
            bad += over
            print(
                f"{workload:18} {name:14} medians {' '.join(f'{m:12.4f}' for m in medians)}  "
                f"spreads {' '.join(f'{100 * s:5.1f}%' for s in spreads)}  drift {100 * drift:+6.1f}%  "
                f"bound {100 * bound:4.0f}%{'  <-- OVER' if over else ''}",
                flush=True,
            )
            if args.raw:
                for runs in sets:
                    print("    " + " ".join(f"{r[name]:.4f}" for r in runs), flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
