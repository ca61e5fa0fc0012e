"""Tests of run.py's statistics and repetition checks.

    python3 -m unittest -v test_run      (from e2ebench/tests)
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_median(self):
        self.assertIsNone(run.tail_percentile(list(range(19))))
        self.assertEqual(run.tail_percentile(list(range(20)))[0], 50.0)

    def test_highest_percentile_with_ten_beyond(self):
        for n, expected in ((99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)):
            p, _, count = run.tail_percentile(list(range(n)))
            self.assertEqual((p, count), (expected, n), n)

    def test_value_is_nearest_rank(self):
        samples = [float(x) for x in range(1, 1001)]  # 1..1000
        p, value, n = run.tail_percentile(list(reversed(samples)))
        self.assertEqual((p, value, n), (99.0, 990.0, 1000))
        self.assertEqual(sum(1 for x in samples if x > value), 10)

    def test_nearest_rank(self):
        self.assertEqual(run.nearest_rank([3, 1, 2], 50), 2)
        self.assertEqual(run.nearest_rank([1, 2, 3, 4], 50), 2)
        self.assertEqual(run.nearest_rank([1, 2, 3, 4], 100), 4)


def rep(**overrides):
    doc = {"seed": 8, "inputs_digest": "ab", "virt": {"delivered": 10}, "sent": 10,
           "reference_digest": "r1", "reference_s": [run.REFERENCE_S] * 3,
           "setup_s": 0.5, "packet_wall_s": 0.01, "peak_rss_kb": 1024,
           "deploy_ms": [2.0], "undeploy_ms": [1.0], "monitor_ms": [0.5]}
    doc.update(overrides)
    return doc


class RepetitionChecks(unittest.TestCase):
    def test_identical_repetitions_pass(self):
        run.check_reps([rep(), rep()])

    def test_rejects_a_doctored_virtual_output(self):
        with self.assertRaises(run.RunFailed):
            run.check_reps([rep(), rep(virt={"delivered": 9})])

    def test_rejects_different_inputs(self):
        with self.assertRaises(run.RunFailed):
            run.check_reps([rep(), rep(inputs_digest="cd")])

    def test_plans_are_checked_against_their_own_first_repetition(self):
        other = {"seed": 9, "inputs_digest": "cd", "virt": {"delivered": 7}, "sent": 7}
        run.check_reps([rep(), rep(**other), rep(), rep(**other)])
        with self.assertRaises(run.RunFailed):
            run.check_reps([rep(), rep(**other), rep(**dict(other, sent=6))])

    def test_rejects_a_different_reference_result(self):
        with self.assertRaises(run.RunFailed):
            run.check_reps([rep(), rep(reference_digest="r2")])


class PlanSeeds(unittest.TestCase):
    def test_each_run_seed_owns_disjoint_plan_seeds(self):
        self.assertEqual(len(set(run.plan_seeds(1))), run.PLANS_PER_RUN)
        self.assertFalse(set(run.plan_seeds(1)) & set(run.plan_seeds(2)))
        self.assertEqual(run.plan_seeds(1), run.plan_seeds(1))

    def test_by_plan_keeps_the_first_repetition_in_plan_order(self):
        reps = [rep(seed=9, sent=1), rep(seed=8, sent=2), rep(seed=9, sent=3)]
        self.assertEqual([r["sent"] for r in run.by_plan(reps)], [2, 1])


class HostNormalization(unittest.TestCase):
    def test_reference_speed_leaves_times_as_measured(self):
        e2e = run.end_to_end([rep()])
        self.assertAlmostEqual(e2e["setup_s"][0], 0.5)
        self.assertAlmostEqual(e2e["pkt_per_s"][0], 1000.0)
        self.assertAlmostEqual(e2e["deploy_ms_p50"][0], 2.0)

    def test_a_host_twice_as_slow_reads_the_same(self):
        slow = rep(reference_s=[2 * run.REFERENCE_S] * 3, setup_s=1.0, packet_wall_s=0.02,
                   deploy_ms=[4.0], undeploy_ms=[2.0], monitor_ms=[1.0])
        fast, slow_e2e = run.end_to_end([rep()]), run.end_to_end([slow])
        for name in run.END_TO_END:
            self.assertAlmostEqual(slow_e2e[name][0], fast[name][0], msg=name)
        raw = run.end_to_end([slow], normalized=False)
        self.assertAlmostEqual(raw["pkt_per_s"][0], 500.0)
        self.assertAlmostEqual(raw["deploy_ms_p50"][0], 4.0)

    def test_speed_is_the_median_reference_sample(self):
        self.assertAlmostEqual(run.speed(rep(reference_s=[run.REFERENCE_S, 9.0, run.REFERENCE_S / 2,
                                                          run.REFERENCE_S])), 1.0)


if __name__ == "__main__":
    unittest.main()
