#!/usr/bin/env python3
"""Verdicts of ci/perf_guard.py on canned run records; runs no benchmark.

    python3 ci/test_perf_guard.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import perf_guard  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SOCKET = "runtime.tcp.msgs_per_s"
# Typical medians of every end-to-end metric, and the socket rate.
VALUES = {"throughput_per_s": 1000.0, "step_ms_p90": 4.0, "latency_ms_p50": 900.0,
          "latency_ms_mean": 950.0, "validations_per_tx": 0.6,
          "governor_expected_loss": 2.0, "setup_s": 0.002, "peak_rss_mib": 40.0,
          SOCKET: 72000.0}
# Per-seed jitter, the same on both trees; its median is 1.
JITTER = (0.96, 1.0, 1.03, 0.98, 1.05)


def make_runs(tree, scale=None, drop=()):
    """Five seeds of every guarded run for `tree`. `scale` maps (workload,
    metric) to a factor on that metric; `drop` names metrics left out."""
    scale = scale or {}
    runs = []
    for i, jitter in enumerate(JITTER):
        for workload, trace in perf_guard.RUNS:
            names = [SOCKET] if trace else [m["name"] for m in SPEC["end_to_end"]]
            metrics = {name: {"value": VALUES[name] * jitter * scale.get((workload, name), 1.0),
                              "unit": ""}
                       for name in names if name not in drop}
            runs.append({"tree": tree, "workload": workload, "trace": trace, "seed": 100 + i,
                         "exit": 0, "result": {"correct": True, "attempted": 500,
                                               "failed": 0, "metrics": metrics}})
    return runs


def verdict(base, head):
    return perf_guard.compare(SPEC, base + head)


class Verdicts(unittest.TestCase):
    def assert_fails_on(self, problems, *words):
        self.assertTrue(any(all(w in p for w in words) for p in problems),
                        "no problem names %s in %s" % (words, problems))

    def test_identical_medians_pass(self):
        rows, problems = verdict(make_runs("base"), make_runs("head"))
        self.assertEqual(problems, [])
        self.assertTrue(all(row["verdict"] == "ok" for row in rows))
        # Every end-to-end metric of both workloads, plus the socket rate.
        self.assertEqual(len(rows), 2 * len(SPEC["end_to_end"]) + 1)
        self.assertIn("sim_honest", perf_guard.render(rows))

    def test_throughput_21_percent_lower_on_one_workload_fails(self):
        head = make_runs("head", {("sim_byzantine", "throughput_per_s"): 0.79})
        _, problems = verdict(make_runs("base"), head)
        self.assertEqual(len(problems), 1)
        self.assert_fails_on(problems, "sim_byzantine", "throughput_per_s")

    def test_socket_rate_21_percent_lower_fails(self):
        head = make_runs("head", {("sim_honest", SOCKET): 0.79})
        _, problems = verdict(make_runs("base"), head)
        self.assert_fails_on(problems, "sim_honest", SOCKET)

    def test_validations_6_percent_higher_fails_its_5_percent_bound(self):
        head = make_runs("head", {("sim_honest", "validations_per_tx"): 1.06})
        _, problems = verdict(make_runs("base"), head)
        self.assert_fails_on(problems, "sim_honest", "validations_per_tx")

    def test_step_p90_24_percent_higher_passes(self):
        head = make_runs("head", {("sim_honest", "step_ms_p90"): 1.24})
        _, problems = verdict(make_runs("base"), head)
        self.assertEqual(problems, [])

    def test_step_p90_26_percent_higher_fails(self):
        head = make_runs("head", {("sim_honest", "step_ms_p90"): 1.26})
        _, problems = verdict(make_runs("base"), head)
        self.assert_fails_on(problems, "sim_honest", "step_ms_p90")

    def test_failed_gate_or_nonzero_exit_at_head_fails(self):
        for change in ({"exit": 1}, {"result": None},
                       {"result": dict(make_runs("head")[4]["result"], correct=False)}):
            head = make_runs("head")
            head[4].update(change)
            _, problems = verdict(make_runs("base"), head)
            self.assert_fails_on(problems, "head", head[4]["workload"], "seed 101")

    def test_failed_base_run_leaves_head_judged_alone(self):
        for change in ({"exit": 1}, {"result": dict(make_runs("base")[4]["result"],
                                                     correct=False)}):
            base = make_runs("base")
            base[4].update(change)
            # HEAD 30% slower still passes: there is nothing to compare with.
            head = make_runs("head", {("sim_honest", "throughput_per_s"): 0.7})
            rows, problems = verdict(base, head)
            self.assertIsNone(rows)
            self.assertEqual(problems, [])
            head[0]["exit"] = 1
            _, problems = verdict(base, head)
            self.assertEqual(len(problems), 1)
            self.assert_fails_on(problems, "head", "seed 100")

    def test_higher_failed_share_at_head_fails(self):
        head = make_runs("head")
        head[1]["result"]["failed"] = 1
        _, problems = verdict(make_runs("base"), head)
        self.assert_fails_on(problems, "sim_byzantine", "failed share")

    def test_metric_only_at_head_is_reported_not_compared(self):
        head = make_runs("head", {("sim_honest", "setup_s"): 10.0})
        rows, problems = verdict(make_runs("base", drop=("setup_s",)), head)
        self.assertEqual(problems, [])
        setup = [row for row in rows if row["metric"] == "setup_s"]
        self.assertEqual([row["verdict"] for row in setup], ["head only", "head only"])
        self.assertIn("head only", perf_guard.render(rows))

    def test_metric_missing_at_head_fails(self):
        rows, problems = verdict(make_runs("base"), make_runs("head", drop=("step_ms_p90",)))
        self.assertEqual(len(problems), 2)
        self.assert_fails_on(problems, "sim_honest", "step_ms_p90", "missing at head")
        self.assert_fails_on(problems, "sim_byzantine", "step_ms_p90", "missing at head")
        self.assertIn("base only", perf_guard.render(rows))

    def test_batches_alternate_the_first_tree_on_fresh_seeds(self):
        first, second = perf_guard.schedule(0), perf_guard.schedule(1)
        openers = [run[0] for run in first[::2 * len(perf_guard.RUNS)]]
        self.assertEqual(len(openers), perf_guard.PAIRS)
        self.assertEqual(openers.count("base"), openers.count("head"))
        self.assertFalse({run[3] for run in first} & {run[3] for run in second})


if __name__ == "__main__":
    unittest.main()
