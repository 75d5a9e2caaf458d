#!/usr/bin/env python3
"""Sensitivity check of the benchmark against a known slowdown.

    python3 perfbench/simd_check.py [--seed 1] [--seconds 0] [workload ...]

WITAG_SIMD=off pins the scalar kernels, which keep every output
byte-identical but decode about 3x slower. For each workload this runs
the traced benchmark on the native tier and on the scalar tier and
requires: both pass the output check (with the default seed that
includes the pinned statistics), rounds_per_s falls by more than its
BENCHMARK.json bound, and phy.viterbi.self_share rises. This is the one
place two SIMD tiers are compared on purpose; compare.py refuses it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "simd_check")


def run(workload, seed, seconds, scalar):
    env = dict(os.environ)
    env.pop("WITAG_SIMD", None)
    if scalar:
        env["WITAG_SIMD"] = "off"
    out = os.path.join(OUT_DIR, "%s_%s.json"
                       % (workload, "scalar" if scalar else "native"))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1",
                           "--out", out],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("run.py failed on %s" % workload)
    with open(out) as f:
        return json.load(f)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["rounds_per_s"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="per run; 0 runs one cycle of sub-passes")
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)

    ok = True
    for w in args.workloads:
        native = run(w, args.seed, args.seconds, scalar=False)
        scalar = run(w, args.seed, args.seconds, scalar=True)
        rps_n = native["end_to_end"]["rounds_per_s"]
        rps_s = scalar["end_to_end"]["rounds_per_s"]
        vit_n = native["per_layer"]["phy.viterbi.self_share"]
        vit_s = scalar["per_layer"]["phy.viterbi.self_share"]
        fall = 1.0 - rps_s / rps_n
        checks = {
            "tiers %s -> %s" % (native["env"]["simd_tier"],
                                scalar["env"]["simd_tier"]):
                scalar["env"]["simd_tier"] == "scalar"
                and native["env"]["simd_tier"] != "scalar",
            "outputs correct on both tiers":
                native["correct"] and scalar["correct"],
            "rounds_per_s %.1f -> %.1f (-%.0f%%, bound %.0f%%)"
            % (rps_n, rps_s, 100 * fall, 100 * bound): fall > bound,
            "phy.viterbi.self_share %.3f -> %.3f" % (vit_n, vit_s):
                vit_s > vit_n,
        }
        for text, passed in checks.items():
            print("%-15s %-6s %s" % (w, "ok" if passed else "FAILED", text))
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
