#!/usr/bin/env python3
"""Builds and runs one workload of the publish->serve benchmark.

    python3 perfbench/run.py --workload build|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of the source tree. Every run first configures and
(incrementally) builds the benchmark binary from source into
.bench_build/perfbench (CMake, Release). The last line of stdout is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json when --trace 0 and every
per-layer metric when --trace 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "privhp_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "privhp_perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        # Build output goes to stderr so stdout stays the result stream.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    build()

    scratch = os.path.join(BUILD_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        done = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch, "--git-sha", git_sha()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout)
        fail(f"workload {args.workload} exited with {done.returncode}")
    record = json.loads(lines[-2])
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["values"]:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": raw["values"][m["name"]],
                              "unit": m["unit"]}
    print(json.dumps(record))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": max(1, raw["attempted"]),
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
