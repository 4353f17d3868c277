#!/usr/bin/env python3
"""Performance guard: compare two source trees by the medians of repeated runs.

    python3 ci/perf_guard.py BASE HEAD

BASE and HEAD are two checkouts of this repository, usually a change's parent
and the change. Each first runs the unchanged perfbench/run.py once, untimed,
which builds it on every CPU. Then both run alternating pairs on the same
seeds, pinned to one CPU; the tree that runs first alternates from pair to
pair. Every end-to-end metric of BASE's BENCHMARK.json (the parent's
contract, which a change cannot loosen) is compared per workload, HEAD's
median against BASE's, with the file's direction and bound; committed tx/s
and the traced socket msgs/s are held to 20%. The guard fails (exit 1) when
a HEAD median is worse by more than its bound, when HEAD lacks a metric BASE
reports, when a HEAD run exits non-zero or fails its correctness gate, or
when HEAD's failed/attempted share is higher than BASE's. A first batch that
fails is confirmed by a second one on new seeds, judged together with it:
one run's speed is bimodal on a shared machine, and a median of 8 can land
on the slow mode for one tree only. A metric only HEAD reports is printed,
not compared. After a failed BASE run there is nothing to compare against:
BASE runs no more, and HEAD is judged by its own runs. The raw result lines
go to perf_guard.jsonl in the working directory.
"""

import json
import os
import statistics
import subprocess
import sys
import time

PAIRS = 8  # per batch; even, so each tree runs first equally often
BATCHES = 2
SECONDS = 10
FIRST_SEED = 2101
# (workload, trace) of each run; sim_honest's traced run drives the sockets.
RUNS = (("sim_honest", 0), ("sim_byzantine", 0), ("sim_honest", 1))
TRACED = {"sim_honest": ["runtime.tcp.msgs_per_s"]}  # the traced metrics compared
HELD = ("throughput_per_s", "runtime.tcp.msgs_per_s")
HELD_BOUND = 0.20
ROW = "%-14s %-23s %-31s %-31s %6s %6s  %s"


def run_ok(run):
    return run["exit"] == 0 and (run["result"] or {}).get("correct") is True


def compare(spec, runs):
    """Verdict over run records: dicts of "tree" ("base" or "head"),
    "workload", "trace", "seed", "exit" and "result" (the parsed result line
    or None). `spec` is BASE's BENCHMARK.json. Returns (rows, problems): one
    row per (workload, metric) and one message per reason to fail. When a
    BASE run failed, rows is None and only HEAD's failed runs are problems."""
    problems = ["%s %s (trace %d) seed %d: exit %d, %s" % (
        r["tree"], r["workload"], r["trace"], r["seed"], r["exit"],
        "correct=%s" % r["result"].get("correct") if r["result"] else "no result line")
        for r in runs if r["tree"] == "head" and not run_ok(r)]
    if any(r["tree"] == "base" and not run_ok(r) for r in runs):
        return None, problems
    results = {}
    for r in runs:
        if r["result"]:
            results.setdefault((r["tree"], r["workload"], r["trace"]), []).append(r["result"])

    def failed_share(key):
        attempted = sum(res["attempted"] for res in results.get(key, []))
        return sum(res["failed"] for res in results.get(key, [])) / attempted if attempted else 0

    for workload, trace in RUNS:
        base, head = (failed_share((tree, workload, trace)) for tree in ("base", "head"))
        if head > base:
            problems.append("%s (trace %d): failed share %.4f at head > %.4f at base"
                            % (workload, trace, head, base))

    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            values = {"base": {}, "head": {}}
            for tree, by_name in values.items():
                for res in results.get((tree, workload, trace), []):
                    for name, metric in res["metrics"].items():
                        by_name.setdefault(name, []).append(metric["value"])
            names = TRACED.get(workload, []) if trace else end_to_end + sorted(
                (set(values["base"]) | set(values["head"])) - set(end_to_end))
            for name in names:
                base, head = values["base"].get(name, []), values["head"].get(name, [])
                row = {"workload": workload, "metric": name, "base": base, "head": head,
                       "verdict": "base only" if base else "head only" if head else "no data"}
                rows.append(row)
                if base and not head:
                    problems.append("%s %s: reported at base, missing at head"
                                    % (workload, name))
                if not (base and head):
                    continue
                row["bound"] = min(declared[name].get("bound", 1), HELD_BOUND) \
                    if name in HELD else declared[name]["bound"]
                base_med, head_med = statistics.median(base), statistics.median(head)
                row["ratio"] = head_med / base_med if base_med else float("inf") if head_med else 1
                sign = -1 if declared[name]["better"] == "higher" else 1
                row["verdict"] = "WORSE" if sign * (row["ratio"] - 1) > row["bound"] else "ok"
                if row["verdict"] == "WORSE":
                    problems.append("%s %s: head median %.6g vs base %.6g, worse by more "
                                    "than %.0f%%" % (workload, name, head_med, base_med,
                                                     100 * row["bound"]))
    return rows, problems


def render(rows):
    def cell(values):
        if not values:
            return "-"
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return "%.4g [%.4g, %.4g]" % (statistics.median(values), q[0], q[2])

    return "\n".join([ROW % ("workload", "metric", "base median [q1, q3]",
                             "head median [q1, q3]", "ratio", "bound", "verdict")] + [
        ROW % (r["workload"], r["metric"], cell(r["base"]), cell(r["head"]),
               "%.3f" % r["ratio"] if "ratio" in r else "-",
               "%.0f%%" % (100 * r["bound"]) if "bound" in r else "-", r["verdict"])
        for r in rows])


def run_one(tree, path, workload, trace, seed, seconds, log):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = (proc.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(line)
    except ValueError:
        result = None
    run = {"tree": tree, "workload": workload, "trace": trace, "seed": seed,
           "exit": proc.returncode, "result": result if isinstance(result, dict) else None}
    log.write(json.dumps(dict(run, seconds=seconds, result=line)) + "\n")
    log.flush()
    print("perf_guard: %-4s %-13s trace %d seed %d: exit %d in %.1f s" % (
        tree, workload, trace, seed, proc.returncode, time.monotonic() - started), flush=True)
    if not run_ok(run):
        print(proc.stderr[-4000:])
    return run


def schedule(batch):
    """(tree, workload, trace, seed) of each run of batch `batch`, in order."""
    return [(tree, workload, trace, FIRST_SEED + pair)
            for pair in range(batch * PAIRS, (batch + 1) * PAIRS)
            for workload, trace in RUNS
            for tree in (("base", "head") if pair % 2 == 0 else ("head", "base"))]


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(p) for p in argv[1:]):
        print("usage: perf_guard.py BASE HEAD  (two checkouts of this repository)",
              file=sys.stderr)
        return 2
    paths = {"base": argv[1], "head": argv[2]}
    with open(os.path.join(paths["base"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    started = time.monotonic()
    runs = []
    broken = set()  # trees with a failed run: a broken build or gate fails every later run
    with open("perf_guard.jsonl", "w") as log:
        # Untimed: build each tree on every CPU and check that it runs at all.
        for tree in ("base", "head"):
            run = run_one(tree, paths[tree], "sim_honest", 0, FIRST_SEED, 1, log)
            if not run_ok(run):
                runs.append(run)
                broken.add(tree)
        # Timed: one CPU for every run of both trees, so that the two runs
        # of a pair, seconds apart, meet the same core and the same neighbours.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        for batch in range(BATCHES):
            for tree, workload, trace, seed in schedule(batch):
                if tree not in broken and "head" not in broken:
                    runs.append(run_one(tree, paths[tree], workload, trace, seed, SECONDS, log))
                    if not run_ok(runs[-1]):
                        broken.add(tree)
            rows, problems = compare(spec, runs)
            if not problems or broken or batch + 1 == BATCHES:
                break
            for problem in problems:
                print("perf_guard: batch %d: %s" % (batch + 1, problem))
            print("perf_guard: running batch %d to confirm" % (batch + 2), flush=True)
    if rows is None:
        print("perf_guard: no comparison: the base tree failed a run (above); "
              "head is judged by its own runs alone")
    else:
        print(render(rows))
    print("perf_guard: %d runs in %.1f min" % (len(runs), (time.monotonic() - started) / 60))
    for problem in problems:
        print("perf_guard: FAIL " + problem)
    print("perf_guard: " + ("fail" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
