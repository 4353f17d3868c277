#!/usr/bin/env python3
"""Build and run the RepChain benchmark for one workload.

    python3 perfbench/run.py --workload sim_honest --seed 7 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds the
library sources and the benchmark program (perfbench/repbench.cpp) into
.bench_build/perfbench; later runs only rebuild what changed. The program's
output is passed through; its last line is the JSON result. The exit code is
non-zero when the build fails, a correctness gate fails, or the result does
not list exactly the metrics BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "repbench")
WORKLOADS = ("sim_honest", "sim_byzantine")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "scenario.hpp")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Problems with the program's JSON result line (empty list = valid)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("unexpected result keys %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correctness gate failed")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    declared = declared_metrics(trace)
    if sorted(result["metrics"]) != sorted(declared):
        missing = set(declared) - set(result["metrics"])
        extra = set(result["metrics"]) - set(declared)
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(missing), sorted(extra)))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    problems = check_result(lines[-1], args.trace) if lines else ["no output"]
    if proc.returncode != 0 or problems:
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
