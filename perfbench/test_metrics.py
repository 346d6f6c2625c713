#!/usr/bin/env python3
"""Checks the benchmark's own arithmetic on synthetic inputs.

  python3 perfbench/test_metrics.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as m  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10.
        pct, value, n = m.tail(list(range(1, 1001)))
        self.assertEqual((pct, value, n), (99.0, 990, 1000))

    def test_more_samples_reach_a_higher_percentile(self):
        pct, value, _ = m.tail(list(range(1, 10001)))
        self.assertEqual((pct, value), (99.9, 9990))

    def test_nine_beyond_is_not_enough(self):
        # 999 samples: p99 leaves 999 - 990 = 9 beyond, so p90 is reported.
        self.assertEqual(m.beyond(999, 99.0), 9)
        pct, value, _ = m.tail(list(range(1, 1000)))
        self.assertEqual((pct, value), (90.0, 900))

    def test_too_few_samples_fall_back_to_median(self):
        pct, value, n = m.tail([5, 1, 3])
        self.assertEqual((pct, value, n), (50.0, 3, 3))

    def test_no_samples_reads_zero(self):
        self.assertEqual(m.tail([]), (0.0, 0.0, 0))

    def test_order_does_not_matter(self):
        values = [7, 3, 9, 1, 5] * 40
        self.assertEqual(m.tail(values), m.tail(sorted(values)))

    def test_nearest_rank_percentile(self):
        self.assertEqual(m.percentile([10, 20, 30, 40], 50.0), 20)
        self.assertEqual(m.percentile([10, 20, 30, 40], 75.1), 40)
        self.assertEqual(m.percentile([], 50.0), 0.0)


class GridArithmetic(unittest.TestCase):
    def test_busy_frac(self):
        # Three workers, a 10 s grid, 24 s of point time in total.
        self.assertAlmostEqual(m.busy_frac([8, 8, 4, 4], 3, 10.0), 0.8)
        self.assertEqual(m.busy_frac([1.0], 3, 0.0), 0.0)

    def test_tail_starts_when_fewer_points_than_workers_remain(self):
        # Five points on three workers: after the third completion (t=6)
        # only two remain, so the tail runs from 6 to the end at 10.
        done = [9.0, 2.0, 6.0, 4.0, 10.0]
        self.assertAlmostEqual(m.tail_s(done, 3, 10.0), 4.0)

    def test_single_worker_tail_is_after_the_last_point(self):
        self.assertAlmostEqual(m.tail_s([1.0, 2.5], 1, 3.0), 0.5)

    def test_grid_smaller_than_workers_is_all_tail(self):
        self.assertEqual(m.tail_s([1.0, 2.0], 3, 5.0), 5.0)

    def test_ns_per_flit_hop(self):
        self.assertAlmostEqual(m.ns_per_flit_hop(2.0, 4_000_000), 500.0)
        self.assertEqual(m.ns_per_flit_hop(2.0, 0), 0.0)


class Calibration(unittest.TestCase):
    def test_a_host_at_reference_speed_keeps_its_seconds(self):
        self.assertAlmostEqual(m.calibrated(3.0, [m.REF_CALIB_MS] * 3), 3.0)

    def test_a_slower_host_is_scaled_down(self):
        # Calibration 25% slower than the reference: 5 s on this host is
        # 4 s on the reference host.
        slow = m.REF_CALIB_MS * 1.25
        self.assertAlmostEqual(m.calibrated(5.0, [slow, slow]), 4.0)

    def test_the_median_sample_is_used(self):
        # One interrupted sample does not move the scale.
        ref = m.REF_CALIB_MS
        self.assertAlmostEqual(m.calibrated(2.0, [ref, 9 * ref, ref]), 2.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [(0, 100, -1), (10, 30, 0), (40, 90, 0), (50, 60, 2)]
        self.assertEqual(m.self_times(spans), [30, 20, 40, 10])

    def test_overlapping_children_count_once(self):
        # Children from parallel work overlap: [10, 50) and [30, 70) cover
        # [10, 70), 60 of the parent's 100.
        spans = [(0, 100, -1), (10, 50, 0), (30, 70, 0)]
        self.assertEqual(m.self_times(spans)[0], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(10, 20, -1), (5, 15, 0)]
        self.assertEqual(m.self_times(spans)[0], 5)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(m.self_times([(3, 8, -1)]), [5])


if __name__ == "__main__":
    unittest.main()
