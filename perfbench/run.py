#!/usr/bin/env python3
"""WiTAG round benchmark.

Builds the harness (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench, runs one workload and prints every metric with
its unit, the output checks and the build environment. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fig5_link --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (from a traced re-run of every sub-pass) and the span
profile. --out PATH also saves the full record for perfbench/compare.py.
--write-pins stores the run's per-sub-pass statistics as the pinned
values for the default seed (only when the workload's code changed on
purpose).
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "witag_perfbench")
PINS = os.path.join(HERE, "pins.json")
BUILD_TYPE = "RelWithDebInfo"
DEFAULT_SEED = 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("WiTAG sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "witag_perfbench", "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def run_binary(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("witag_perfbench exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def source_digest():
    """SHA-256 over src/ and perfbench/: identifies the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def load_pins():
    if not os.path.isfile(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def pin_check(report):
    """The simulated statistics of every sub-pass must equal the values
    pinned for the default seed."""
    if report["seed"] != DEFAULT_SEED:
        return None
    pinned = load_pins().get(report["workload"])
    if pinned is None:
        return {"name": "pinned_statistics", "ok": False,
                "detail": "no pinned statistics for this workload"}
    bad = [k for k, (got, want) in enumerate(zip(report["pass_stats"], pinned))
           if got != want]
    if len(pinned) != len(report["pass_stats"]):
        bad.append("count")
    return {"name": "pinned_statistics", "ok": not bad,
            "detail": "" if not bad else "sub-passes differ: %s" % bad}


def print_human(report, spec, checks, env):
    print("workload %s  seed %d  trace %d  cycles %d  operations %d"
          % (report["workload"], report["seed"], report["trace"],
             report["cycles"], report["attempted"]))
    print("env " + json.dumps(env, sort_keys=True))
    kind = "per_layer" if report["trace"] else "end_to_end"
    for m in spec[kind]:
        print("  %-40s %14.6g %s" % (m["name"], report[kind][m["name"]],
                                     m["unit"]))
    if not report["trace"]:
        # The simulated outputs (see README), shown on untraced runs too.
        for m in spec["per_layer"]:
            if m["name"] in report["end_to_end"]:
                print("  %-40s %14.6g %s (simulated)"
                      % (m["name"], report["end_to_end"][m["name"]], m["unit"]))
        for name, unit in (("host.rounds_per_s", "1/s"),
                           ("host.cpu_us_per_round", "us"),
                           ("host.ref_pass_ms", "ms")):
            print("  %-40s %14.6g %s (host time)"
                  % (name, report["end_to_end"][name], unit))
    if report["trace"]:
        root = report["profile_root_us"] or 1.0
        print("  span profile (self time over attributed busy time %.1f ms)"
              % (root / 1e3))
        for s in sorted(report["profile"], key=lambda s: -s["self_us"]):
            share = ("%5.1f%%" % (100.0 * s["self_us"] / root)
                     if s["in_root"] else "  (not in busy time)")
            print("    %-24s %9d calls %11.1f ms incl %11.1f ms self %s"
                  % (s["name"], s["count"], s["inclusive_us"] / 1e3,
                     s["self_us"] / 1e3, share))
    for c in checks:
        print("  check %-24s %s %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                       c["detail"]))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this file")
    ap.add_argument("--write-pins", action="store_true",
                    help="store this run's statistics as the default-seed pins")
    args = ap.parse_args()

    # A terminated run still stops and reaps the harness (see run_binary).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        report = run_binary(args)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    if args.write_pins:
        if args.seed != DEFAULT_SEED:
            print("perfbench: pins are for seed %d" % DEFAULT_SEED,
                  file=sys.stderr)
            return 1
        pins = load_pins()
        pins[args.workload] = report["pass_stats"]
        with open(PINS, "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")

    checks = list(report["checks"])
    pinned = pin_check(report)
    if pinned is not None:
        checks.append(pinned)
    correct = all(c["ok"] for c in checks)
    # Every operation of a run whose output check fails counts as failed.
    failed = report["failed"] if correct else report["attempted"]

    kind = "per_layer" if args.trace else "end_to_end"
    spec_metrics = spec[kind]
    metrics = report[kind]
    env = dict(report["env"], seed=args.seed, commit=git_commit(),
               source_sha256=source_digest())
    print_human(report, spec, checks, env)

    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }
    if args.out:
        record = dict(result, workload=args.workload, trace=args.trace,
                      seconds=args.seconds, env=env, checks=checks,
                      end_to_end=report["end_to_end"],
                      per_layer=report["per_layer"])
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
