#!/usr/bin/env python3
"""Unit tests for scripts/ab_compare.py's statistics and result parsing
(run via ctest or directly). Nothing here builds or runs a tree."""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "ab_compare.py")
_SPEC = importlib.util.spec_from_file_location("ab_compare", _SCRIPT)
ab_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_compare)


class QuantileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(ab_compare.quantile([5, 1, 3], 0.5), 3)
        self.assertEqual(ab_compare.quantile([4, 1, 3, 2], 0.5), 2.5)

    def test_quartiles_interpolate_between_ranks(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        self.assertAlmostEqual(ab_compare.quantile(values, 0.25), 32.5)
        self.assertAlmostEqual(ab_compare.quantile(values, 0.75), 77.5)

    def test_single_value(self):
        self.assertEqual(ab_compare.quantile([7.0], 0.25), 7.0)
        self.assertEqual(ab_compare.quantile([7.0], 0.75), 7.0)


class SummarizeTest(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        row = ab_compare.summarize("throughput", "1/s", [1, 2, 3, 4],
                                   [1, 3, 3, 1])
        self.assertEqual(row["wins"], 1)
        self.assertEqual(row["pairs"], 4)

    def test_rates_are_better_higher(self):
        row = ab_compare.summarize("throughput", "1/s", [100, 100, 100],
                                   [110, 90, 120])
        self.assertEqual(row["wins"], 2)
        self.assertAlmostEqual(row["gain"], 0.10)

    def test_times_are_better_lower(self):
        row = ab_compare.summarize("item_p50_ms", "ms", [10, 10, 10],
                                   [9, 11, 8])
        self.assertEqual(row["wins"], 2)
        self.assertAlmostEqual(row["gain"], 0.10)
        self.assertEqual(row["change"], 9)

    def test_base_median_and_quartiles(self):
        row = ab_compare.summarize("setup_s", "s", [4, 1, 3, 2, 5],
                                   [1, 1, 1, 1, 1])
        self.assertEqual((row["q1"], row["median"], row["q3"]), (2, 3, 4))


class ParseTest(unittest.TestCase):
    def test_perfbench_result_line(self):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"throughput": {"value": 5.0, "unit": "1/s"}}}
        metrics, flag = ab_compare.perfbench_metrics(
            "provenance {}\n" + json.dumps(result) + "\n")
        self.assertEqual(metrics, {"throughput": ("1/s", 5.0)})
        self.assertIsNone(flag)

    def test_perfbench_failures_are_flagged(self):
        for result in ({"correct": False, "failed": 0, "metrics": {}},
                       {"correct": True, "failed": 2, "metrics": {}}):
            _, flag = ab_compare.perfbench_metrics(json.dumps(result))
            self.assertIsNotNone(flag)
        _, flag = ab_compare.perfbench_metrics("")
        self.assertEqual(flag, "no result line")

    def test_perfbench_digest_from_provenance(self):
        stdout = ('provenance {"workload": "certify", "seed": 3, '
                  '"digest": "2e2b09d8dcc67fdf"}\n{"correct": true}\n')
        self.assertEqual(ab_compare.perfbench_digest(stdout),
                         "2e2b09d8dcc67fdf")
        self.assertIsNone(ab_compare.perfbench_digest('{"correct": true}'))

    def test_digest_difference_names_seed_and_both_digests(self):
        digests = {"base": {1: "aaaa", 2: "bbbb"},
                   "change": {1: "aaaa", 2: "cccc"}}
        self.assertEqual(ab_compare.digest_differences(digests),
                         ["seed 2: base digest bbbb, change digest cccc"])
        digests["change"][2] = "bbbb"
        self.assertEqual(ab_compare.digest_differences(digests), [])

    def test_perfbench_mode_reports_digest_differences(self):
        mode = ab_compare.Perfbench("certify", tempfile.gettempdir())
        mode.digests = {"base": {1: "aaaa"}, "change": {1: "abab"}}
        self.assertEqual(mode.differences(),
                         ["seed 1: base digest aaaa, change digest abab"])

    def test_e9_rows_prefer_items_and_median_aggregates(self):
        doc = {"benchmarks": [
            {"name": "BM_A", "run_type": "iteration",
             "items_per_second": 9.0, "real_time": 1.0, "time_unit": "ns"},
            {"name": "BM_B/4", "run_type": "iteration", "real_time": 2.5,
             "time_unit": "us"},
            {"name": "BM_C_mean", "run_name": "BM_C",
             "run_type": "aggregate", "aggregate_name": "mean",
             "real_time": 1.0, "time_unit": "ms"},
            {"name": "BM_C_median", "run_name": "BM_C",
             "run_type": "aggregate", "aggregate_name": "median",
             "items_per_second": 4.0, "real_time": 2.0, "time_unit": "ms"},
        ]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "benchmarks.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            metrics = ab_compare.e9_metrics(path)
        self.assertEqual(metrics, {"e9:BM_A": ("1/s", 9.0),
                                   "e9:BM_B/4": ("us", 2.5),
                                   "e9:BM_C": ("1/s", 4.0)})



class TimedRunTest(unittest.TestCase):
    """process.cpu_ms is the child's CPU time, not its wall time."""

    def _timed(self, code):
        done, wall_ms, cpu_ms = ab_compare.timed_run(
            [sys.executable, "-c", code], os.getcwd())
        self.assertEqual(done.returncode, 0, done.stderr)
        return wall_ms, cpu_ms

    def test_busy_child_cpu_is_counted(self):
        _, cpu_ms = self._timed(
            "import time\n"
            "while time.process_time() < 0.2:\n"
            "    pass\n")
        self.assertGreaterEqual(cpu_ms, 190)

    def test_sleeping_child_uses_little_cpu(self):
        wall_ms, cpu_ms = self._timed("import time; time.sleep(0.3)")
        self.assertGreaterEqual(wall_ms, 300)
        self.assertLess(cpu_ms, wall_ms - 200)


if __name__ == "__main__":
    unittest.main()
