#!/usr/bin/env python3
"""Self-test of rsvm's benchmark at a tiny problem size.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

For every workload listed in BENCHMARK.json it checks that
  - two traced runs with the same seed give identical simulated metrics
    and the same digest of the simulated results;
  - a run with another seed passes every correctness check;
  - every end-to-end and per-layer metric of BENCHMARK.json, plus the
    report-only metrics, is emitted, and the result line holds exactly
    the metrics the contract asks for.
It also checks that the benchmark fails, without printing a result, in
a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step lives there)

SCALE = "0.25"
SECONDS = "0.1"
# Printed and reported, but not gated: 0 on the clean workloads.
REPORT_ONLY = ["recovery_ms", "fail_ratio"]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(binary, workload, seed, trace, report):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE,
           "--report", report]
    done = subprocess.run(cmd, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(report) as f:
        full = json.load(f)
    return done.returncode, result, full


def simulated(full):
    return {k: v["value"] for k, v in full["metrics"].items()
            if v["kind"] == "simulated"}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    binary = run.build("RelWithDebInfo")
    tmp = os.path.join(run.BUILD_ROOT, "selftest")
    os.makedirs(tmp, exist_ok=True)

    for wl in [w["name"] for w in spec["workloads"]]:
        rep = lambda tag: os.path.join(tmp, "%s-%s.json" % (wl, tag))
        rc1, res1, full1 = bench(binary, wl, 7, 1, rep("a"))
        rc2, _, full2 = bench(binary, wl, 7, 1, rep("b"))
        check(rc1 == 0 and rc2 == 0 and res1["correct"],
              wl + ": seed 7 passes its correctness checks")
        check(simulated(full1) == simulated(full2) and
              full1["sim_digest"] == full2["sim_digest"],
              wl + ": same seed gives identical simulated metrics")
        check(sorted(res1["metrics"]) == sorted(layer),
              wl + ": traced result line holds exactly the per-layer metrics")
        missing = [m for m in e2e + layer + REPORT_ONLY
                   if m not in full1["metrics"]]
        check(not missing, wl + ": every metric emitted " + str(missing))

        rc3, res3, full3 = bench(binary, wl, 8, 0, rep("c"))
        check(rc3 == 0 and res3["correct"] and res3["failed"] == 0,
              wl + ": another seed passes every correctness check")
        check(sorted(res3["metrics"]) == sorted(e2e),
              wl + ": untraced result line holds exactly the end-to-end "
              "metrics")
        check(all(res3["metrics"][m]["value"] != 0 for m in e2e),
              wl + ": no end-to-end metric is 0")

    # Without the simulator's sources the benchmark must fail cleanly.
    bare = os.path.join(tmp, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(done.returncode != 0 and not done.stdout.strip(),
          "bare directory: nonzero exit and no result")
    shutil.rmtree(bare)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
