#!/usr/bin/env python3
"""Compares records saved by `perfbench/run.py --out`.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each side's end-to-end metrics are reduced to their median over the
records given, and every metric is checked against its BENCHMARK.json
bound. Exit code 0: no metric worse than its bound; 1: a regression;
2: refused. Records of different workloads, build types or SIMD tiers
are refused: their numbers measure different programs.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARABLE = ("workload", "build_type", "simd_tier")


def identity(record):
    env = record["env"]
    return {"workload": record["workload"], "build_type": env["build_type"],
            "simd_tier": env["simd_tier"]}


def refusal(records):
    """Why these records may not be compared, or None."""
    first = identity(records[0])
    for r in records[1:]:
        other = identity(r)
        for key in COMPARABLE:
            if other[key] != first[key]:
                return "%s differs: %s vs %s" % (key, first[key], other[key])
    return None


def median_metric(records, name):
    return statistics.median(r["end_to_end"][name] for r in records)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = [], []
    for paths, out in ((args.base, base), (args.new, new)):
        for path in paths:
            with open(path) as f:
                out.append(json.load(f))

    reason = refusal(base + new)
    if reason:
        print("refused: " + reason)
        return 2
    if not all(r["correct"] for r in base + new):
        print("refused: a record failed its output check")
        return 2

    regressed = False
    print("%-22s %14s %14s %9s %7s" % ("metric", "base", "new", "worse by",
                                        "bound"))
    for m in spec["end_to_end"]:
        b = median_metric(base, m["name"])
        n = median_metric(new, m["name"])
        worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
        flag = worse > m["bound"]
        regressed |= flag
        print("%-22s %14.6g %14.6g %+8.1f%% %6.0f%% %s"
              % (m["name"], b, n, 100 * worse, 100 * m["bound"],
                 "REGRESSION" if flag else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
