#!/usr/bin/env python3
"""Compares two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW [--trace-base 0|1] [--trace-new 0|1]

BASE and NEW are directories of run records (the .json files perfbench
writes under .bench_results/) or record files. For each workload and
end-to-end metric it prints each side's median and quartiles over its
runs, the change of the medians, and a verdict against the metric's bound
in BENCHMARK.json:

  within      the new median is no worse than the base by more than the bound
  better      the new median is better by more than the bound
  WORSE       the new median is worse by more than the bound
  unresolved  one side's run-to-run spread (quartile distance over its
              median) is wider than the bound, so the data cannot tell

Comparing a directory's untraced runs with its traced runs
(--trace-base 0 --trace-new 1) gives the tracing overhead.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path, trace):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = {}
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("record "):
                    line = line[len("record "):]
                if not line.startswith("{"):
                    continue
                rec = json.loads(line)
                if "end_to_end" not in rec or rec.get("trace") != trace:
                    continue
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--trace-base", type=int, default=0, choices=[0, 1])
    ap.add_argument("--trace-new", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base = load(args.base, args.trace_base)
    new = load(args.new, args.trace_new)
    worse = False
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        print(f"== {workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        print(f"{'metric':20s} {'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s}"
              f" {'change':>8s} {'bound':>6s}  verdict")
        for name, m in spec.items():
            bv = [r["end_to_end"][name]["value"] for r in b_runs if name in r["end_to_end"]]
            nv = [r["end_to_end"][name]["value"] for r in n_runs if name in r["end_to_end"]]
            if not bv or not nv:
                continue
            bm, bq1, bq3, bs = summary(bv)
            nm, nq1, nq3, ns = summary(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse_by = change if m["better"] == "lower" else -change
            bound = m["bound"]
            if max(bs, ns) > bound:
                verdict = "unresolved (spread %.3f / %.3f)" % (bs, ns)
            elif worse_by > bound:
                verdict = "WORSE"
                worse = True
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "within"
            print(f"{name:20s} {bm:12.5g} [{bq1:10.5g}, {bq3:10.5g}] "
                  f"{nm:12.5g} [{nq1:10.5g}, {nq3:10.5g}] {change:+8.3f} {bound:6.2f}  {verdict}")
    only = sorted(set(base) ^ set(new))
    if only:
        print("workloads on one side only:", ", ".join(only))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
