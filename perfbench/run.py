#!/usr/bin/env python3
"""Build and run the OpenHSD benchmark (hsd_perfbench).

One run, from the root of a source checkout:

    python3 perfbench/run.py --workload fullchip --seed 1 --seconds 40 --trace 0

builds perfbench/ (the OpenHSD libraries from src/ plus hsd_perfbench) into
$CARGO_TARGET_DIR (default .bench_build), then runs one workload. The last
stdout line is the run's JSON result; build output goes to stderr.

Spread of a workload over k seeds:

    python3 perfbench/run.py --workload serve-wire --repeat 10 [--seed 1] [--seconds 40] [--trace 0]

runs it k times with seeds seed..seed+k-1 and prints every metric's
median, quartiles and quartile spread as a share of the median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: OpenHSD sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Configure every time: it is cheap when nothing changed, and cmake
    # refuses a build directory whose cache belongs to another source
    # tree, so a build directory shared between checkouts never builds
    # the other checkout's sources.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hsd_perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd).returncode
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if res.returncode:
        sys.exit(f"perfbench: seed {seed} exited with {res.returncode}")
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[-2] if len(lines) > 1 else ""


def repeat(binary, args):
    runs = []
    for k in range(args.repeat):
        seed = args.seed + k
        result, info = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, True)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        print("  " + info, flush=True)
        print("  " + " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items()), flush=True)
        runs.append(result)
    print(f"{args.workload}: {len(runs)} runs, "
          f"all correct={all(r['correct'] for r in runs)}, "
          f"failed shares={sorted({r['failed'] / r['attempted'] for r in runs})}")
    print(f"{'metric':36} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36} {first['unit']:8} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run k seeds and print medians and quartiles")
    args = ap.parse_args()
    binary = build()
    if args.repeat > 0:
        repeat(binary, args)
        return 0
    return run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                    False)


if __name__ == "__main__":
    sys.exit(main())
