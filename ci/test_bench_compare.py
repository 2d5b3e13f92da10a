#!/usr/bin/env python3
"""Tests for ci/bench_compare.py's host rule: the absolute channel rates are
gated only against a baseline recorded on the same host.

Run: python3 ci/test_bench_compare.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402

HOST = {"cpu_model": "Example CPU @ 3.00GHz", "hardware_threads": 4,
        "compiler": "12.2.0", "build_type": "Release"}
OTHER_HOST = dict(HOST, cpu_model="Other CPU @ 2.70GHz", hardware_threads=1)

BASELINE = {
    "host": HOST,
    "stages": {"channel_block_sps": 1.6e7,
               "channel_block_tracing_off_sps": 1.6e7},
    "completion_run": {"sensors": 10240, "peak_rss_mb_ceiling": 270},
}

MEASURED = {
    "host": HOST,
    "scaling": {"sensors": 1024, "hardware_threads": 4, "deterministic": True,
                "fleet_scaling_efficiency": 0.95,
                "completion_run": {"sensors": 10240, "peak_rss_mb": 235.0}},
    "stages": {"channel_block_sps": 1.6e7,
               "channel_block_tracing_off_sps": 1.6e7,
               "channel_block_over_scalar": 1.5,
               "channel_tracing_off_over_block": 1.0,
               "fleet_ckpt_over_nockpt": 0.98,
               "checkpoint_interval_epochs": 100},
}


def run(measured, baseline):
    """bench_compare's exit code and stdout for the two reports."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, report in (("measured", measured), ("baseline", baseline)):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as f:
                json.dump(report, f)
            paths.append(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_compare.main(["bench_compare.py"] + paths)
    return code, out.getvalue()


def slowed(report, factor):
    """The report with both absolute channel rates scaled by `factor`."""
    report = copy.deepcopy(report)
    for key in bench_compare.GATED_KEYS:
        report["stages"][key] *= factor
    return report


class HostRule(unittest.TestCase):
    def test_same_host_passes_within_the_slack(self):
        code, out = run(slowed(MEASURED, 0.9), BASELINE)
        self.assertEqual(code, 0, out)
        self.assertNotIn("::warning::", out)

    def test_same_host_fails_a_25_percent_drop(self):
        code, out = run(slowed(MEASURED, 0.75), BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("::error::channel_block_sps regressed", out)
        self.assertIn("::error::channel_block_tracing_off_sps regressed", out)

    def test_other_host_warns_naming_both_and_passes(self):
        measured = slowed(MEASURED, 0.5)
        measured["host"] = OTHER_HOST
        code, out = run(measured, BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIn("::warning::", out)
        self.assertIn("cpu_model=Other CPU @ 2.70GHz", out)
        self.assertIn("cpu_model=Example CPU @ 3.00GHz", out)
        self.assertNotIn("::error::", out)

    def test_other_host_still_gates_the_ratios(self):
        measured = slowed(MEASURED, 0.5)
        measured["host"] = OTHER_HOST
        measured["scaling"]["deterministic"] = False
        code, out = run(measured, BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("determinism contract is broken", out)

    def test_no_host_recorded_warns(self):
        for missing_from in ("measured", "baseline"):
            measured = slowed(MEASURED, 0.5)
            baseline = copy.deepcopy(BASELINE)
            del (measured if missing_from == "measured" else baseline)["host"]
            code, out = run(measured, baseline)
            self.assertEqual(code, 0, (missing_from, out))
            self.assertIn("::warning::", out)
            self.assertIn("no host recorded", out)

    def test_committed_baseline_records_its_host(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "bench_baseline.json")
        with open(path) as f:
            host = json.load(f)["host"]
        for key in bench_compare.HOST_KEYS:
            self.assertIn(key, host)


if __name__ == "__main__":
    unittest.main()
