"""Self-tests of the benchmark's statistics (python3 perfbench/run.py --self-test)."""

import statistics
import unittest

import benchstats


class Medians(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchstats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchstats.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, 5.5)
        self.assertEqual(benchstats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_relative_spread(self):
        values = [9.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.relative_spread(values), (q3 - q1) / q2)
        self.assertEqual(benchstats.relative_spread([2.0, 2.0, 2.0]), 0.0)


class Percentiles(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.percentile(values, 0), 1)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertAlmostEqual(benchstats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(benchstats.percentile(values, 90), 90.1)
        self.assertEqual(benchstats.percentile([7.0], 95), 7.0)
        with self.assertRaises(ValueError):
            benchstats.percentile(values, 101)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(benchstats.tail_percentile([1.0] * 39))
        p, _ = benchstats.tail_percentile([1.0] * 40)
        self.assertEqual(p, 75.0)
        p, _ = benchstats.tail_percentile(list(range(100)))
        self.assertEqual(p, 90.0)
        p, v = benchstats.tail_percentile(list(range(1000)))
        self.assertEqual(p, 99.0)
        self.assertAlmostEqual(v, benchstats.percentile(list(range(1000)), 99.0))


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            ("probe", 0.0, 10.0, -1, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("b", 5.0, 9.0, 0, 0),
            ("b.inner", 6.0, 7.0, 2, 0),
            ("other", 20.0, 21.0, -1, 1),
        ]
        self.assertEqual(benchstats.self_times(spans), [3.0, 3.0, 3.0, 1.0, 1.0])


class Verdicts(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_improved_needs_nine_tenths_of_pairs_and_a_gap(self):
        change = [v * 1.10 for v in self.parent]
        self.assertEqual(benchstats.verdict(self.parent, change, "higher", 0.05),
                         "improved")
        self.assertEqual(benchstats.verdict(self.parent, change, "lower", 0.05),
                         "worse")

    def test_small_change_is_within_bound(self):
        change = [v * 1.001 for v in self.parent]
        change[0] = self.parent[0] * 0.99  # loses a pair: not 9/10
        change[1] = self.parent[1] * 0.99
        self.assertEqual(benchstats.verdict(self.parent, change, "higher", 0.05),
                         "within bound")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        change = list(reversed(noisy))
        self.assertEqual(benchstats.verdict(noisy, change, "lower", 0.05),
                         "unresolved")

    def test_every_run_better_overrides_spread(self):
        noisy = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
        change = [v * 0.5 for v in noisy]
        self.assertEqual(benchstats.verdict(noisy, change, "lower", 0.01),
                         "improved")

    def test_ties_count_for_neither(self):
        change = list(self.parent)
        self.assertEqual(benchstats.verdict(self.parent, change, "lower", 0.05),
                         "within bound")


if __name__ == "__main__":
    unittest.main()
