#!/usr/bin/env python3
"""Repeat runner: runs one workload N times on consecutive seeds and prints,
per metric, the median, the quartiles, the quartile spread as a share of the
median (the figure BENCHMARK.json bounds are checked against) and the
max/min spread.

  python3 perfbench/repeat.py --workload served_grep --runs 10 --seed 1
  python3 perfbench/repeat.py --workload ingest --runs 10 --sets 2

--sets 2 runs a second set on the next N seeds and prints, per metric, how
far the second median moved from the first in either direction, against
the metric's bound. Every metric with a bound, setup_s included, is flagged
OVER when its quartile spread exceeds a third of the bound.
Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build + one run)


def bounds():
    """end_to_end metric name -> bound from BENCHMARK.json."""
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_set(binary, args, first_seed):
    values = {}
    units = {}
    for i in range(args.runs):
        seed = first_seed + i
        code, _, result, stamp = run.run_one(binary, args.workload, seed, args.seconds,
                                             args.trace, echo=False)
        if result is None or code != 0 or not result["correct"]:
            print("seed %d: run failed (exit %d)" % (seed, code), file=sys.stderr)
            sys.exit(1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %s cpu_steal_share=%.4f" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items()),
            (stamp or {}).get("cpu_steal_share", float("nan"))), flush=True)
    return values, units


def summarize(values, units, limits):
    medians = {}
    print("%-30s %-6s %12s %12s %12s %9s %9s %12s %12s %9s" % (
        "metric", "unit", "median", "q1", "q3", "iqr/med", "bound/3",
        "min", "max", "rng/med"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (
            vals[0], vals[0], vals[0])
        medians[name] = med
        spread = (q3 - q1) / med if med else float("nan")
        full = (max(vals) - min(vals)) / med if med else float("nan")
        bound = limits.get(name)
        print("%-30s %-6s %12.6g %12.6g %12.6g %9.4f %9s %12.6g %12.6g %9.4f%s" % (
            name, units[name], med, q1, q3, spread,
            "%.4f" % (bound / 3) if bound is not None else "-",
            min(vals), max(vals), full,
            "  OVER" if bound is not None and spread > bound / 3 else ""))
    return medians


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    binary = run.build()
    limits = bounds()
    sets = []
    for s in range(args.sets):
        print("== %s set %d: seeds %d..%d, %g s each" % (
            args.workload, s + 1, args.seed + s * args.runs,
            args.seed + (s + 1) * args.runs - 1, args.seconds), flush=True)
        values, units = run_set(binary, args, args.seed + s * args.runs)
        sets.append(summarize(values, units, limits))
    if len(sets) == 2:
        print("== second median vs first (agree: |second - first| / first <= bound)")
        for name, first in sets[0].items():
            second = sets[1][name]
            bound = limits.get(name)
            moved = (second - first) / first if first else float("nan")
            print("%-30s %12.6g -> %12.6g  moved %+.4f%s" % (
                name, first, second, moved,
                "" if bound is None else ("  (bound %.2f: %s)" % (
                    bound, "ok" if abs(moved) <= bound else "DISAGREE"))))


if __name__ == "__main__":
    main()
