#!/usr/bin/env python3
"""Self-tests for the benchmark's statistics: python3 perfbench/test_stats.py"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True
import stats as S  # noqa: E402


def span(start, end, parent=-1):
    return {"start_s": start, "end_s": end, "parent": parent}


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(S.median([3, 1, 2]), 2)
        self.assertEqual(S.median([4, 1, 3, 2]), 2.5)

    def test_median_empty_raises(self):
        with self.assertRaises(ValueError):
            S.median([])

    def test_quartiles_match_statistics_quantiles(self):
        v = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(S.quartiles(v), tuple(statistics.quantiles(v, n=4)))
        # Exclusive method on 1..10: q1 = 2.75, q3 = 8.25.
        self.assertEqual(S.quartiles(v), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertAlmostEqual(S.spread(v), (8.25 - 2.75) / 5.5)
        self.assertEqual(S.spread([2.0] * 5), 0.0)


class Tail(unittest.TestCase):
    def test_p90_with_enough_samples(self):
        v = list(range(1, 101))  # 100 samples: rank 90, 10 beyond it
        value, p, n = S.tail(v, 0.9)
        self.assertEqual((value, p, n), (90, 0.9, 100))

    def test_p90_needs_ten_beyond(self):
        # 99 samples: nearest rank 90 leaves only 9 beyond, so the rank
        # drops to 89 (10 beyond).
        v = list(range(1, 100))
        value, p, _ = S.tail(v, 0.9)
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for x in v if x > value), 10)
        self.assertLess(p, 0.9)

    def test_short_sample_falls_back_to_median_rank(self):
        v = [5.0, 1.0, 3.0, 2.0, 4.0]
        value, p, n = S.tail(v, 0.9)
        self.assertEqual((value, p, n), (3.0, 0.6, 5))

    def test_short_even_sample_never_below_median(self):
        v = [4.0, 1.0, 3.0, 2.0]
        value, p, n = S.tail(v, 0.9)
        self.assertEqual((value, p, n), (2.5, 0.5, 4))

    def test_single_sample(self):
        self.assertEqual(S.tail([7.0], 0.9), (7.0, 1.0, 1))

    def test_112_samples_report_p90(self):
        v = [float(i) for i in range(112)]
        value, p, _ = S.tail(v, 0.9)
        self.assertGreaterEqual(p, 0.9)
        self.assertGreaterEqual(sum(1 for x in v if x > value), 10)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(S.self_time([span(1.0, 3.5)], 0), 2.5)

    def test_children_subtracted(self):
        spans = [span(0.0, 10.0), span(1.0, 3.0, 0), span(4.0, 8.0, 0)]
        self.assertAlmostEqual(S.self_time(spans, 0), 4.0)

    def test_overlapping_children_counted_once(self):
        spans = [span(0.0, 10.0), span(1.0, 5.0, 0), span(3.0, 6.0, 0)]
        self.assertAlmostEqual(S.self_time(spans, 0), 5.0)

    def test_children_clipped_to_parent(self):
        spans = [span(2.0, 6.0), span(0.0, 3.0, 0), span(5.0, 9.0, 0)]
        self.assertAlmostEqual(S.self_time(spans, 0), 2.0)

    def test_grandchildren_not_subtracted_twice(self):
        spans = [span(0.0, 10.0), span(1.0, 9.0, 0), span(2.0, 3.0, 1)]
        self.assertAlmostEqual(S.self_time(spans, 0), 2.0)
        self.assertAlmostEqual(S.self_time(spans, 1), 7.0)


class Attribution(unittest.TestCase):
    def test_layers_plus_residual_equal_total(self):
        per_call = {"wl": 3.1e-3, "scatter_physical": 6.3e-4,
                    "scatter_filler": 5.4e-4, "solve": 6.8e-4}
        launches = {"wl": 539, "scatter_physical": 470,
                    "scatter_filler": 470, "solve": 470}
        layer_of = {"wl": "ops.wl", "scatter_physical": "ops.scatter",
                    "scatter_filler": "ops.scatter", "solve": "fft.solve"}
        layers, residual = S.attribute(3.2, per_call, launches, layer_of)
        self.assertEqual(set(layers), {"ops.wl", "ops.scatter", "fft.solve"})
        self.assertAlmostEqual(layers["ops.scatter"], (6.3e-4 + 5.4e-4) * 470)
        self.assertTrue(math.isclose(math.fsum(layers.values()) + residual,
                                     3.2, rel_tol=1e-12))

    def test_residual_can_be_negative_and_is_kept(self):
        layers, residual = S.attribute(1.0, {"k": 0.5}, {"k": 3},
                                       {"k": "ops.wl"})
        self.assertEqual(layers, {"ops.wl": 1.5})
        self.assertAlmostEqual(residual, -0.5)

    def test_kernel_without_launches_contributes_zero(self):
        layers, residual = S.attribute(2.0, {"k": 0.5}, {}, {"k": "ops.wl"})
        self.assertEqual(layers, {"ops.wl": 0.0})
        self.assertEqual(residual, 2.0)


if __name__ == "__main__":
    unittest.main()
