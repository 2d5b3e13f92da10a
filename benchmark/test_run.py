"""Unit tests for the statistics and gates of run.py.

    python3 -m unittest discover -s benchmark
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def summary(values):
    return run.summarize(values)


SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05},
        {"name": "sensor_sim_s_per_s", "unit": "sensor-s/s",
         "better": "higher", "bound": 0.05},
    ],
}
HOST = {"cpu_model": "cpu", "nproc": 4, "lane_width": 8,
        "compiler": "12.2.0", "build_type": "Release", "commit": "a"}


def result_set(fingerprint, seed=1, **metrics):
    return {"fingerprint": fingerprint,
            "workloads": {"w": {"seed": seed, "metrics": {
                name: dict(summary(values), unit="u")
                for name, values in metrics.items()}}}}


class SummarizeTest(unittest.TestCase):
    def test_odd_count(self):
        s = summary([5, 1, 3, 2, 4])
        self.assertEqual(s["median"], 3)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertEqual(s["iqr"], 3.0)
        self.assertEqual(s["n"], 5)

    def test_even_count_matches_statistics_quantiles(self):
        s = summary([1, 2, 3, 4])
        self.assertEqual(s["median"], 2.5)
        self.assertEqual((s["q1"], s["q3"]), (1.25, 3.75))

    def test_single_value_has_no_spread(self):
        s = summary([7.0])
        self.assertEqual((s["median"], s["iqr"]), (7.0, 0.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            summary([])

    def test_relative_spread(self):
        self.assertAlmostEqual(run.relative_spread(summary([9, 10, 11, 10])),
                               summary([9, 10, 11, 10])["iqr"] / 10)
        self.assertEqual(run.relative_spread(summary([0, 0, 0])), 0.0)


class GateTest(unittest.TestCase):
    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(run.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(run.worse_by(10.0, 11.0, "higher"), -0.1)
        self.assertAlmostEqual(run.worse_by(10.0, 9.0, "higher"), 0.1)
        self.assertEqual(run.worse_by(0.0, 2.0, "lower"), 2.0)

    def test_within_bound_is_ok(self):
        base = summary([10.0, 10.01, 9.99])
        self.assertEqual(run.gate(base, summary([10.4, 10.41, 10.39]),
                                  "lower", 0.05), "ok")

    def test_beyond_bound_regresses(self):
        base = summary([10.0, 10.01, 9.99])
        self.assertEqual(run.gate(base, summary([10.6, 10.61, 10.59]),
                                  "lower", 0.05), "regressed")

    def test_improvement_never_regresses(self):
        base = summary([10.0, 10.01, 9.99])
        self.assertEqual(run.gate(base, summary([5.0, 5.01, 4.99]),
                                  "lower", 0.05), "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = summary([8.0, 10.0, 12.0, 10.0, 9.0])
        self.assertEqual(run.gate(noisy, noisy, "lower", 0.05), "unresolved")

    def test_exact_metric_may_not_worsen_at_all(self):
        self.assertEqual(run.gate(summary([0, 0]), summary([1, 1]),
                                  "lower", 0.0), "regressed")
        self.assertEqual(run.gate(summary([0, 0]), summary([0, 0]),
                                  "lower", 0.0), "ok")


class FingerprintTest(unittest.TestCase):
    def test_commit_does_not_matter(self):
        self.assertTrue(run.fingerprints_match(HOST, dict(HOST, commit="b")))

    def test_host_keys_matter(self):
        for key in run.FINGERPRINT_KEYS:
            self.assertFalse(run.fingerprints_match(HOST, dict(HOST, **{key: "x"})),
                             key)

    def test_same_host_compares_everything(self):
        a = result_set(HOST, wall_s=[10, 10, 10], estimate_mae_mps=[1, 1, 1])
        b = result_set(HOST, wall_s=[11, 11, 11], estimate_mae_mps=[1, 1, 1])
        rows, ok = run.compare_sets(a, b, SPEC)
        self.assertFalse(ok)
        verdicts = {name: verdict for _, name, verdict, _ in rows}
        self.assertEqual(verdicts, {"wall_s": "regressed",
                                    "estimate_mae_mps": "ok"})

    def test_other_host_skips_absolute_timings(self):
        other = dict(HOST, cpu_model="other")
        a = result_set(HOST, wall_s=[10, 10, 10], estimate_mae_mps=[1, 1, 1],
                       quarantine_flaps=[0, 0, 0])
        b = result_set(other, wall_s=[50, 50, 50], estimate_mae_mps=[1, 1, 1],
                       quarantine_flaps=[1, 1, 1])
        rows, ok = run.compare_sets(a, b, SPEC)
        verdicts = {name: verdict for _, name, verdict, _ in rows}
        self.assertEqual(verdicts["wall_s"], "skipped")
        self.assertEqual(verdicts["estimate_mae_mps"], "ok")
        self.assertEqual(verdicts["quarantine_flaps"], "regressed")
        self.assertFalse(ok)

    def test_seed_gates_need_the_same_seed(self):
        a = result_set(HOST, seed=1, estimate_mae_mps=[1, 1, 1])
        b = result_set(HOST, seed=2, estimate_mae_mps=[2, 2, 2])
        rows, ok = run.compare_sets(a, b, SPEC)
        self.assertEqual([(name, verdict) for _, name, verdict, _ in rows],
                         [("estimate_mae_mps", "skipped")])
        self.assertTrue(ok)

    def test_accuracy_gate_allows_two_percent(self):
        a = result_set(HOST, estimate_mae_mps=[1.0, 1.0])
        ok_set = result_set(HOST, estimate_mae_mps=[1.015, 1.015])
        bad_set = result_set(HOST, estimate_mae_mps=[1.03, 1.03])
        self.assertTrue(run.compare_sets(a, ok_set, SPEC)[1])
        self.assertFalse(run.compare_sets(a, bad_set, SPEC)[1])


if __name__ == "__main__":
    unittest.main()
