#!/usr/bin/env python3
"""Compares two sets of benchmark result files (standard library only).

    python3 bench/benchmark/compare.py --base A1.json A2.json ... \\
                                       --new  B1.json B2.json ...

Each file is one run's --out file; a directory stands for the *.json files
in it, in name order. Runs are grouped by workload and trace mode, and
within a group the i-th base run is paired with the i-th new run, so list
the runs in the order they ran (alternating base and new).

For every (workload, metric) the tool prints each side's median and
quartiles and how many pairs the new side wins (ties count for neither).
End-to-end metrics then get a verdict by their bound in BENCHMARK.json:

  worse       the new median is worse than the base median by more than
              the bound
  better      there are at least 10 pairs, the new side wins at least 9 in
              10 of them, and the medians differ by more than the base
              runs' interquartile distance
  unresolved  a side's spread (interquartile distance / median) is wider
              than the bound, and not every new run beats every base run
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict. Every count metric
(a unit that is not a time or a rate) whose value differs between runs of
one side with the same workload, trace mode and seed is flagged: counts of
the same code and seed must repeat exactly.

Exit status: 1 when any verdict is "worse" or any count is flagged.
"""
import argparse
import glob
import json
import os
import statistics
import sys

TIMING_UNITS = {"s", "ms", "us", "1/s", "%"}
MIN_PAIRS = 10  # fewer pairs cannot support a claimed gain


def load_metric_defs(path):
    with open(path) as f:
        bench = json.load(f)
    defs = {}
    for m in bench["end_to_end"]:
        defs[m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in bench["per_layer"]:
        defs[m["name"]] = (m["unit"], m["better"], None)
    return defs


def load_runs(paths):
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
    runs = []
    for path in files:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def group(runs):
    groups = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(base, new, direction, bound):
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    worse_by = (nmed - bmed) / bmed if direction == "lower" else (bmed - nmed) / bmed
    pairs = list(zip(base, new))
    wins = sum(better(n, b, direction) for b, n in pairs)
    spread = max((b3 - b1) / bmed if bmed else 0.0, (n3 - n1) / nmed if nmed else 0.0)
    if worse_by > bound:
        return "worse"
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) \
            and better(nmed, bmed, direction) and abs(nmed - bmed) > b3 - b1:
        return "better"
    if spread > bound and not all(better(n, b, direction) for b in base for n in new):
        return "unresolved"
    return "unchanged"


def count_flags(side, groups, defs):
    flags = []
    for (workload, trace), runs in sorted(groups.items()):
        by_seed = {}
        for run in runs:
            by_seed.setdefault(run["seed"], []).append(run)
        for seed, same in sorted(by_seed.items()):
            for name, (unit, _, _) in defs.items():
                if unit in TIMING_UNITS:
                    continue
                values = {r["result"]["metrics"][name]["value"]
                          for r in same if name in r["result"]["metrics"]}
                if len(values) > 1:
                    flags.append(f"{side} {workload} trace={trace} seed={seed}: "
                                 f"{name} differs across runs: {sorted(values)}")
    return flags


def fmt(x):
    return f"{x:.6g}"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="base run files or dirs")
    parser.add_argument("--new", nargs="+", required=True, help="new run files or dirs")
    parser.add_argument("--bench", default=os.path.join(here, "..", "..", "BENCHMARK.json"),
                        help="BENCHMARK.json with the metric bounds")
    args = parser.parse_args()

    defs = load_metric_defs(args.bench)
    base, new = group(load_runs(args.base)), group(load_runs(args.new))
    worse = 0
    print(f"{'workload':13} {'metric':34} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'change':>8} {'wins':>7}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name, (unit, direction, bound) in defs.items():
            b = [r["result"]["metrics"][name]["value"] for r in base[key]
                 if name in r["result"]["metrics"]]
            n = [r["result"]["metrics"][name]["value"] for r in new[key]
                 if name in r["result"]["metrics"]]
            if not b or not n:
                continue
            b1, bmed, b3 = quartiles(b)
            n1, nmed, n3 = quartiles(n)
            change = (nmed - bmed) / bmed * 100 if bmed else 0.0
            wins = sum(better(y, x, direction) for x, y in zip(b, n))
            v = verdict(b, n, direction, bound) if bound is not None else "-"
            worse += v == "worse"
            print(f"{workload:13} {name:34} "
                  f"{fmt(bmed) + ' [' + fmt(b1) + ', ' + fmt(b3) + ']':34} "
                  f"{fmt(nmed) + ' [' + fmt(n1) + ', ' + fmt(n3) + ']':34} "
                  f"{change:+7.2f}% {wins:>3}/{min(len(b), len(n)):<3}  {v}")
    for key in sorted(set(base) ^ set(new)):
        print(f"only on one side: workload {key[0]} trace {key[1]}")
    flags = count_flags("base", base, defs) + count_flags("new", new, defs)
    for flag in flags:
        print("FLAG " + flag)
    print(f"{worse} worse, {len(flags)} count flags")
    return 1 if worse or flags else 0


if __name__ == "__main__":
    sys.exit(main())
