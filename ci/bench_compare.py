#!/usr/bin/env python3
"""Gate the channel hot-path throughput against the committed baseline.

Reads the per-stage section bench_fleet writes into BENCH_fleet.json and
compares it with ci/bench_baseline.json (committed alongside the code, the
same machinery as ci/tier1_baseline_seconds.txt). The job fails when the
block-path channel throughput regresses more than the allowed fraction, or
when the block path loses its edge over the scalar reference path entirely.

CI runners differ from the machine that recorded the baseline, so the gates
come in two characters:

* channel_block_sps vs baseline               — absolute samples/s, 20 % slack.
  Catches "someone deoptimised the fused loop" on comparable hardware.
* channel_block_tracing_off_sps vs baseline   — same 20 % slack, measured with
  the trace recorder compiled in but disabled. Catches tracing hooks whose
  dormant branches leak into the hot path.
* channel_block_over_scalar ratio >= 1.0      — machine-independent. The block
  path running SLOWER than per-tick scalar calls in the same binary is a
  structural regression no amount of runner variance explains.
* channel_tracing_off_over_block ratio >= 0.8 — machine-independent companion
  for the tracing overhead: both sides run in the same binary seconds apart,
  so a >20 % gap is the instrumentation, not the runner.
* fleet_ckpt_over_nockpt ratio >= 0.9         — machine-independent. The same
  32-sensor epoch loop with a durable checkpoint (serialize + atomic
  temp/fsync/rename) every 100 epochs, against the plain loop in the same
  binary; losing more than 10 % of throughput means checkpointing got too
  expensive for its production cadence.
* scaling.fleet_scaling_efficiency >= 0.8     — machine-independent. The fleet
  sweep normalises each pool mode's speedup by min(threads, hardware threads),
  so ideal is 1.0 whether the runner has 2 cores or 64; dropping below 0.8
  means the epoch loop stopped scaling (serialisation, queue overhead,
  imbalance), not that the runner is slow. On fewer than 2 hardware threads
  the bench writes null — no speedup is measurable there — and the gate is
  skipped with a ::warning rather than passed on a ratio of ~1.0 that could
  never fail. scaling.deterministic must be true on every runner — a
  checksum mismatch at 1k or 10k sensors is a broken determinism contract.
  The 10k completion run's serial-vs-pool speedup is printed, not gated.

Other stage rates are reported but only warn: they feed the artifact for
trend-watching, not the gate.

Usage: ci/bench_compare.py BENCH_fleet.json ci/bench_baseline.json
"""

import json
import sys

REGRESSION_SLACK = 0.20  # fail below 80 % of the baseline throughput
SCALING_EFFICIENCY_FLOOR = 0.80  # hardware-normalised, so machine-independent
GATED_KEYS = ["channel_block_sps", "channel_block_tracing_off_sps"]
RATIO_KEY = "channel_block_over_scalar"
TRACING_RATIO_KEY = "channel_tracing_off_over_block"
TRACING_RATIO_FLOOR = 0.80
CKPT_RATIO_KEY = "fleet_ckpt_over_nockpt"
CKPT_RATIO_FLOOR = 0.90
WARN_KEYS = [
    "amp_scalar_sps",
    "channel_scalar_sps",
    "thermal_step_sps",
]


def load_report(path, role):
    """Loads a report JSON; emits ::error and returns None on a missing,
    unreadable, or unparsable file (instead of a traceback)."""
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as exc:
        print(f"::error::cannot read {role} file {path}: {exc} — "
              "did bench_fleet run and write its JSON report?")
        return None
    except json.JSONDecodeError as exc:
        print(f"::error::{role} file {path} is not valid JSON ({exc}) — "
              "truncated bench run or corrupted artifact")
        return None
    return report


def load_stages(path, role):
    """The "stages" object of a report, or None (with ::error) if absent."""
    report = load_report(path, role)
    if report is None:
        return None
    stages = report.get("stages")
    if not isinstance(stages, dict):
        print(f"::error::{role} file {path} has no \"stages\" object — "
              "bench_fleet did not write its per-stage section")
        return None
    return stages


def gated_ratio(measured, path, key):
    """A gated ratio metric, or None with a ::error that NAMES the missing
    key. Folding "missing" into 0.0 would fail the gate with a message
    blaming a perf regression that never happened — a missing key means the
    bench didn't write it (stale binary, renamed metric), which is its own
    failure and needs its own message."""
    value = measured.get(key)
    if value is None:
        print(f"::error::{path} has no stages.{key} — bench_fleet did not "
              "write this gated metric (stale bench binary or renamed key?)")
        return None
    return value


def check_scaling(path):
    """Gates the fleet scaling sweep: determinism plus the hardware-normalised
    efficiency floor. Both are properties of the measured run alone — no
    baseline needed, so runner hardware never enters the comparison."""
    report = load_report(path, "measured")
    if report is None:
        return True
    scaling = report.get("scaling")
    if not isinstance(scaling, dict):
        print(f"::error::{path} has no \"scaling\" object — bench_fleet did "
              "not run its fleet scaling sweep")
        return True

    failed = False
    sensors = scaling.get("sensors", 0)
    hw = scaling.get("hardware_threads", 0)
    if not scaling.get("deterministic", False):
        print(f"::error::fleet scaling sweep at {sensors} sensors produced "
              "divergent trace checksums across thread counts — the "
              "determinism contract is broken")
        failed = True
    xl = scaling.get("completion_run")
    if isinstance(xl, dict):
        print(f"completion run: {xl.get('sensors')} sensors, "
              f"{xl.get('serial_wall_s', 0.0):.1f} s serial vs "
              f"{xl.get('wall_s', 0.0):.1f} s on pool({xl.get('threads')}) "
              f"= {xl.get('speedup', 0.0):.2f}x (reported, not gated)")
    if "fleet_scaling_efficiency" not in scaling:
        print(f"::error::{path} has no scaling.fleet_scaling_efficiency — "
              "stale bench binary or renamed key?")
        return True
    efficiency = scaling["fleet_scaling_efficiency"]
    if efficiency is None:
        # Fewer than 2 hardware threads: every pool time-slices one core, so
        # the ratio would be ~1.0 by construction and the gate could not fail.
        print(f"::warning::fleet_scaling_efficiency is null — the runner has "
              f"{hw} hardware thread(s), so thread scaling is unmeasurable "
              "here and the efficiency gate is skipped (determinism is still "
              "gated)")
        return failed
    print(f"fleet_scaling_efficiency: {efficiency:.2f} at {sensors} sensors, "
          f"{hw} hardware threads "
          f"(must stay >= {SCALING_EFFICIENCY_FLOOR:.1f}; ideal 1.0)")
    if efficiency < SCALING_EFFICIENCY_FLOOR:
        print("::error::the fleet epoch loop fell below "
              f"{SCALING_EFFICIENCY_FLOOR:.0%} of ideal thread scaling — "
              "the ratio is normalised by available hardware threads, so "
              "this is a scheduling/serialisation regression, not a slow "
              "runner")
        failed = True
    return failed


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    measured = load_stages(argv[1], "measured")
    baseline = load_stages(argv[2], "baseline")
    if measured is None or baseline is None:
        return 1

    failed = check_scaling(argv[1])

    for key in GATED_KEYS:
        if key not in measured:
            print(f"::error::{argv[1]} has no stages.{key} — "
                  "bench_fleet did not write its per-stage section")
            failed = True
            continue
        got = measured[key]
        want = baseline.get(key, 0.0)
        floor = want * (1.0 - REGRESSION_SLACK)
        print(f"{key}: measured {got:.3e}, baseline {want:.3e}, "
              f"floor {floor:.3e} ({100 * (1 - REGRESSION_SLACK):.0f} %)")
        if got < floor:
            print(f"::error::{key} regressed "
                  f">{100 * REGRESSION_SLACK:.0f} % vs the committed baseline "
                  f"({got:.3e} < {floor:.3e} samples/s) — update "
                  f"{argv[2]} only with an explanation")
            failed = True

    ratio = gated_ratio(measured, argv[1], RATIO_KEY)
    if ratio is None:
        failed = True
    else:
        print(f"{RATIO_KEY}: {ratio:.2f} (must stay >= 1.0)")
        if ratio < 1.0:
            print("::error::the fused block path is slower than the scalar "
                  "reference path in the same binary — structural regression")
            failed = True

    tracing_ratio = gated_ratio(measured, argv[1], TRACING_RATIO_KEY)
    if tracing_ratio is None:
        failed = True
    else:
        print(f"{TRACING_RATIO_KEY}: {tracing_ratio:.2f} "
              f"(must stay >= {TRACING_RATIO_FLOOR:.1f})")
        if tracing_ratio < TRACING_RATIO_FLOOR:
            print("::error::disabled tracing costs more than "
                  f"{100 * (1 - TRACING_RATIO_FLOOR):.0f} % of channel block "
                  "throughput — the dormant AQUA_TRACE_* branches leaked into "
                  "the hot path")
            failed = True

    ckpt_ratio = gated_ratio(measured, argv[1], CKPT_RATIO_KEY)
    if ckpt_ratio is None:
        failed = True
    else:
        interval = measured.get("checkpoint_interval_epochs", 0)
        print(f"{CKPT_RATIO_KEY}: {ckpt_ratio:.2f} at a {interval}-epoch "
              f"cadence (must stay >= {CKPT_RATIO_FLOOR:.1f})")
        if ckpt_ratio < CKPT_RATIO_FLOOR:
            print("::error::durable checkpointing every "
                  f"{interval} epochs costs more than "
                  f"{100 * (1 - CKPT_RATIO_FLOOR):.0f} % of fleet throughput "
                  "— both sides run in the same binary, so this is the "
                  "serialize/fsync path getting expensive, not runner "
                  "variance")
            failed = True

    for key in WARN_KEYS:
        got = measured.get(key)
        want = baseline.get(key)
        if got is None or want is None or want <= 0.0:
            continue
        if got < want * (1.0 - REGRESSION_SLACK):
            print(f"::warning::{key} below baseline: "
                  f"{got:.3e} vs {want:.3e} (informational)")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
