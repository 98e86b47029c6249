#!/usr/bin/env python3
"""Build rsvm's benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sync-heavy --seed 1 --seconds 20 --trace 0

The simulator and the benchmark are built with CMake into
.bench_build/<build type>/ (RelWithDebInfo, the repository's default,
unless --build-type names another), then the single-process benchmark
runs. Its last stdout line is the JSON result. With --trace 1 the spans
are written to .bench_build/trace-<workload>-<seed>.json.

Extra options, passed through to the benchmark: --scale X (problem-size
multiplier, default 1) and --report FILE (every metric with its kind,
plus build type, compiler and digest of the simulated results).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_type):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rsvm sources (src/) not found next to perfbench/")
    out = os.path.join(BUILD_ROOT, build_type)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + build_type],
        ["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", default="1")
    ap.add_argument("--report")
    ap.add_argument("--build-type", default="RelWithDebInfo")
    args = ap.parse_args()

    binary = build(args.build_type)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD_ROOT, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.report:
        cmd += ["--report", args.report]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
