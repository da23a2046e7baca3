#!/usr/bin/env python3
"""Tests of the wire-to-decision benchmark.

  python3 wirebench/test_wirebench.py            # everything (about a minute)
  python3 wirebench/test_wirebench.py Units      # the fast unit tests only

The health tests run every workload once on the held-out seed of
notes.json with tracing on, and fail loudly when a workload drifts out of
the band that loads its intended layer. Python standard library only.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as wirebench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(HERE, "notes.json")) as f:
    NOTES = json.load(f)


def bench(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


class Units(unittest.TestCase):
    def test_percentile_is_nearest_rank_on_raw_samples(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(wirebench.percentile(values, 0.50), 50.0)
        self.assertEqual(wirebench.percentile(values, 0.99), 99.0)
        self.assertEqual(wirebench.percentile(values, 1.0), 100.0)
        self.assertEqual(wirebench.percentile([7.0], 0.99), 7.0)

    def test_highest_supported_percentile_leaves_ten_samples(self):
        self.assertEqual(wirebench.highest_supported_percentile(1000), 99.0)
        self.assertEqual(wirebench.highest_supported_percentile(37800), 99.9)
        self.assertEqual(wirebench.highest_supported_percentile(10), 0.0)

    def test_crossing_interpolates_in_log_rate(self):
        self.assertAlmostEqual(wirebench.crossing(1000, 0.0, 1440, 2.0),
                               1200.0)
        self.assertEqual(wirebench.crossing(1000, 1.0, 1200, 3.0), 1000.0)
        self.assertAlmostEqual(wirebench.crossing(1000, 0.5, 1200, 1.0),
                               1200.0)

    def _events(self, batches, **summary):
        s = {"event": "summary", "requests": sum(batches),
             "admitted": sum(batches), "no_path": 0, "capacity_blocked": 0,
             "lost_auction": 0, "shard_conflict": 0, "invalid": 0,
             "queue_dropped": 0}
        s.update(summary)
        return [{"event": "epoch", "epoch": k, "batch": b}
                for k, b in enumerate(batches)] + [s]

    def test_check_det_accepts_the_occupancy_mapping(self):
        wirebench.check_det(self._events([4, 4, 2]), 10, 4)

    def test_check_det_rejects_a_partial_middle_epoch(self):
        with self.assertRaises(wirebench.GateError):
            wirebench.check_det(self._events([4, 2, 4]), 10, 4)

    def test_check_det_rejects_queue_drops_and_leaks(self):
        with self.assertRaises(wirebench.GateError):
            wirebench.check_det(self._events([4, 4, 2], queue_dropped=1),
                                10, 4)
        with self.assertRaises(wirebench.GateError):
            wirebench.check_det(self._events([4, 4, 2], admitted=9), 10, 4)

    def test_span_gate_rejects_a_child_longer_than_its_parent(self):
        traced = {
            "phases": [{"name": "epoch", "total_s": 1.0},
                       {"name": "solve", "total_s": 0.9}],
            "stacks": [{"stack": "epoch", "self_s": 0.1},
                       {"stack": "epoch;solve", "self_s": 0.9}],
        }
        totals = wirebench.span_totals(traced)
        self.assertAlmostEqual(totals["epoch"], 1.0)
        traced["phases"][0]["total_s"] = 0.5
        with self.assertRaises(wirebench.GateError):
            wirebench.span_totals(traced)


class Contract(unittest.TestCase):
    def test_workloads_and_seeds_match_the_notes(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(names), sorted(wirebench.WORKLOADS))
        self.assertEqual(sorted(names), sorted(NOTES["workloads"]))
        self.assertNotEqual(NOTES["seeds"]["default"],
                            NOTES["seeds"]["held_out"])

    def test_layer_map_names_only_declared_metrics(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        layer = {m["name"] for m in BENCHMARK["per_layer"]}
        mapped = set()
        for row in NOTES["layer_map"]:
            mapped.update(row["metrics"])
            self.assertTrue(set(row["moves"]) <= e2e, row)
        self.assertEqual(mapped, layer)


class HeldOutSeed(unittest.TestCase):
    """One traced run per workload on the held-out seed."""

    seed = NOTES["seeds"]["held_out"]
    results = {}

    @classmethod
    def traced(cls, workload):
        if workload not in cls.results:
            cls.results[workload] = bench(workload, cls.seed, trace=1)
        return cls.results[workload]

    def metrics(self, workload):
        result = self.traced(workload)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, declared)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_contended_grid_contends(self):
        m = self.metrics("contended-grid")
        self.assertGreaterEqual(m["graph.occupancy_mean"], 0.5)
        self.assertLessEqual(m["graph.occupancy_mean"], 0.8)
        self.assertGreaterEqual(1.0 - m["outcome.admitted_frac"], 0.20)
        self.assertGreater(m["ufp.solve_share"], 0.5)

    def test_sparse_mesh_churn_loads_open_epoch_and_the_cache(self):
        m = self.metrics("sparse-mesh-churn")
        self.assertGreaterEqual(m["graph.open_epoch_share"], 0.15)
        self.assertGreater(m["ufp.warm_serve_frac"], 0.0)

    def test_critical_pay_is_payments_bound(self):
        m = self.metrics("critical-pay")
        self.assertGreaterEqual(m["mechanism.payments_share"], 0.80)

    def test_end_to_end_names_and_units(self):
        result = bench("critical-pay", self.seed, trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, declared)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0.0, name)


if __name__ == "__main__":
    unittest.main()
