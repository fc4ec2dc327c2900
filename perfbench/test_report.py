"""Self-tests of the benchmark's own arithmetic and output format.

    python3 perfbench/test_report.py
"""

import json
import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402
import run  # noqa: E402


def parse_result_line(line):
    """Inverse of report.result_line: checks the shape of a result line
    the way a reader of the benchmark does, and returns the object."""
    obj = json.loads(line)
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(obj))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or obj[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if obj["attempted"] < 1:
        raise ValueError("attempted < 1")
    for name, m in obj["metrics"].items():
        if not report.valid_name(name) or set(m) != {"value", "unit"}:
            raise ValueError("bad metric %s" % name)
        if (not report.valid_unit(m["unit"]) or
                not isinstance(m["value"], (int, float))):
            raise ValueError("bad metric %s" % name)
    return obj


def raw_run(query_s, append_s, attempted=30, failed=0):
    return {"setup_s": [0.5, 0.4, 0.6], "query_s": query_s,
            "append_s": append_s, "rows_read": 1000.0 * len(query_s),
            "peak_state_entries": 1033.0, "peak_rss_mb": 230.5,
            "attempted": attempted, "failed": failed}


class TailTest(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(report.tail([1.0] * 10))
        self.assertIsNone(report.tail([]))

    def test_exactly_ten_beyond(self):
        for n in (11, 17, 20, 100, 1000):
            samples = [float(i) for i in range(n)][::-1]  # unsorted input
            value, pct, count = report.tail(samples)
            self.assertEqual(count, n)
            self.assertEqual(sum(1 for s in samples if s > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_hundred_samples_is_p90(self):
        value, pct, _ = report.tail([float(i) for i in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)

    def test_label_states_percentile_and_n(self):
        self.assertEqual(report.tail_label([float(i) for i in range(100)]),
                         "p90 of n=100")
        self.assertEqual(report.tail_label([1.0] * 5), "n=5")


class QuantileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(report.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(report.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            report.median([])

    def test_quartiles_match_statistics(self):
        v = [0.91, 0.88, 1.02, 0.95, 0.97, 0.90, 0.93, 1.10, 0.89, 0.94]
        self.assertEqual(report.quartiles(v),
                         tuple(statistics.quantiles(v, n=4)))


class TrimmedMeanTest(unittest.TestCase):
    def test_drops_a_tenth_at_each_end(self):
        self.assertEqual(report.trimmed_mean([5.0, 1.0, 3.0]), 3.0)
        v = [float(i) for i in range(20)] + [1000.0]  # 21 samples: 2 cut
        self.assertEqual(report.trimmed_mean(v), statistics.fmean(v[2:19]))
        self.assertEqual(report.trimmed_mean([2.0] * 10 + [1e9]), 2.0)
        with self.assertRaises(ValueError):
            report.trimmed_mean([])

    def test_moves_smoothly_where_the_median_jumps(self):
        # Samples from two host speeds: moving one sample from the slow
        # mode to the fast one flips the median from mode to mode, and
        # moves the trimmed mean by about 1/n of the gap.
        mostly_slow = [1.0] * 9 + [1.4] * 10
        mostly_fast = [1.0] * 10 + [1.4] * 9
        self.assertEqual(report.median(mostly_slow), 1.4)
        self.assertEqual(report.median(mostly_fast), 1.0)
        self.assertAlmostEqual(
            report.trimmed_mean(mostly_slow) -
            report.trimmed_mean(mostly_fast), 0.4 / 17)  # 19 - 2 cut


class FailedFracTest(unittest.TestCase):
    def test_counts_against_attempted(self):
        self.assertEqual(report.failed_frac(40, 0), 0.0)
        self.assertEqual(report.failed_frac(40, 2), 0.05)
        with self.assertRaises(ValueError):
            report.failed_frac(0, 0)

    def test_end_to_end_metrics(self):
        q = [0.9 + 0.01 * i for i in range(20)]
        a = [0.004 + 0.0001 * i for i in range(40)]
        m = report.end_to_end(raw_run(q, a, attempted=62, failed=1))
        self.assertAlmostEqual(m["query_tmean_s"],
                               statistics.fmean(sorted(q)[2:18]))
        self.assertAlmostEqual(m["append_tmean_s"],
                               statistics.fmean(sorted(a)[4:36]))
        self.assertAlmostEqual(m["query_p50_s"], statistics.median(q))
        self.assertAlmostEqual(m["query_tail_s"], sorted(q)[9])
        self.assertAlmostEqual(m["append_tail_s"], sorted(a)[29])
        self.assertAlmostEqual(m["rows_per_s"], 20000.0 / sum(q))
        self.assertEqual(m["setup_s"], 0.5)
        self.assertAlmostEqual(m["failed_frac"], 1 / 62)

    def test_too_few_samples_for_a_tail_is_an_error(self):
        with self.assertRaises(ValueError):
            report.end_to_end(raw_run([1.0] * 5, [0.1] * 40))


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "exec.scan_self_s", "q-1.x", "9lives"):
            self.assertTrue(report.valid_name(name), name)
        for name in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é", None):
            self.assertFalse(report.valid_name(name), name)

    def test_valid_units(self):
        for unit in ("s", "ms", "1/s", "rows/s", "%", "MiB", "count"):
            self.assertTrue(report.valid_unit(unit), unit)
        for unit in ("", "a b", "x" * 17):
            self.assertFalse(report.valid_unit(unit), unit)

    def test_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in spec[group]]
            for m in spec[group]:
                self.assertTrue(report.valid_unit(m["unit"]), m)
                self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(report.valid_name(name), name)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        # Every end-to-end metric but failed_frac comes from end_to_end().
        q = [1.0 + 0.01 * i for i in range(12)]
        computed = report.end_to_end(raw_run(q, q))
        self.assertLessEqual(set(bounds), set(computed))
        # The traced table maps every per-layer metric to its end-to-end one.
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(run.LAYER_MOVES))


class ResultLineTest(unittest.TestCase):
    SPECS = [{"name": "query_p50_s", "unit": "s"},
             {"name": "rows_per_s", "unit": "rows/s"}]

    def test_round_trip(self):
        metrics = {"query_p50_s": 0.912345678901234, "rows_per_s": 1.1e6,
                   "extra": 3.0}
        line = report.result_line(True, 31, 0, metrics, self.SPECS)
        self.assertNotIn("\n", line)
        obj = parse_result_line(line)
        self.assertEqual(obj["attempted"], 31)
        self.assertIs(obj["correct"], True)
        self.assertEqual(list(obj["metrics"]), ["query_p50_s", "rows_per_s"])
        self.assertEqual(obj["metrics"]["query_p50_s"],
                         {"value": 0.912345678901234, "unit": "s"})

    def test_rejects_non_finite_and_missing(self):
        with self.assertRaises(ValueError):
            report.result_line(True, 1, 0, {"query_p50_s": math.nan,
                                            "rows_per_s": 1.0}, self.SPECS)
        with self.assertRaises(KeyError):
            report.result_line(True, 1, 0, {"query_p50_s": 1.0}, self.SPECS)

    def test_parse_rejects_bad_shapes(self):
        good = {"correct": False, "attempted": 2, "failed": 1,
                "metrics": {"x": {"value": 1.0, "unit": "s"}}}
        parse_result_line(json.dumps(good))
        for bad in ({**good, "extra": 1}, {**good, "attempted": 0},
                    {**good, "failed": 1.5}, {**good, "correct": 1},
                    {**good, "metrics": {"x": {"value": 1.0}}},
                    {**good, "metrics": {"a b": {"value": 1.0,
                                                 "unit": "s"}}}):
            with self.assertRaises(ValueError):
                parse_result_line(json.dumps(bad))


if __name__ == "__main__":
    unittest.main()
