#!/usr/bin/env python3
"""Build and run the aquaCTA benchmark (see benchmark/README.md).

Single run, one workload, result as the last line of stdout:
    python3 benchmark/run.py --workload night-1k --seed 7 --seconds 40 --trace 0

Every workload, repeated, with medians, IQRs and a host fingerprint:
    python3 benchmark/run.py [--workload W] [--repeat 5] [--trace] [--out F]
                             [--history]
Tiny sizes, checks that every metric of BENCHMARK.json is reported:
    python3 benchmark/run.py --smoke
Two result sets against each metric's bound:
    python3 benchmark/run.py --compare A.json B.json

Each run is its own aquabench process, so peak RSS is per workload. Only the
Python standard library is used.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_DIR = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD_DIR, "aquabench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
HISTORY_PATH = os.path.join(HERE, "history.jsonl")

# Metrics that --compare gates besides the end-to-end ones of BENCHMARK.json:
# (better, bound). Each is a pure function of the code and the seed, so it is
# compared only between runs of one seed, on any host. The campaign outcomes
# may not worsen at all. They are not in BENCHMARK.json because they can be
# 0, and the accuracy moves far more from seed to seed than by its bound.
SEED_GATES = {
    "estimate_mae_mps": ("lower", 0.02),
    "failed_ratio": ("lower", 0.0),
    "hard_fault_detection": ("higher", 0.0),
    "quarantine_flaps": ("lower", 0.0),
    "detection_p50_epochs": ("lower", 0.0),
}
FINGERPRINT_KEYS = ("cpu_model", "nproc", "lane_width", "compiler", "build_type")
SMOKE_BUDGET_S = 20.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


# --- statistics and gates (unit-tested in test_run.py) ----------------------

def summarize(values):
    """Median, quartiles and IQR of a list of numbers."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values to summarize")
    med = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values), "values": values}


def relative_spread(summary):
    """IQR as a share of the median (0 for a zero median with no spread)."""
    med = abs(summary["median"])
    if med == 0.0:
        return 0.0 if summary["iqr"] == 0.0 else math.inf
    return summary["iqr"] / med


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`.

    Positive means worse. A zero base compares by absolute difference.
    """
    diff = (new - base) if better == "lower" else (base - new)
    return diff / abs(base) if base != 0.0 else diff


def gate(base, new, better, bound):
    """Verdict for one metric: 'ok', 'regressed' or 'unresolved'.

    `base` and `new` are summaries. The medians may differ by at most `bound`
    in the worse direction. When either side's run-to-run spread is wider
    than the bound the comparison cannot resolve a regression of that size.
    """
    if worse_by(base["median"], new["median"], better) > bound:
        return "regressed"
    if max(relative_spread(base), relative_spread(new)) > bound and bound > 0:
        return "unresolved"
    return "ok"


def fingerprints_match(a, b):
    return all(a.get(k) == b.get(k) for k in FINGERPRINT_KEYS)


def compare_sets(base, new, spec):
    """Rows (workload, metric, verdict, detail) and whether all passed."""
    rows, ok = [], True
    same_host = fingerprints_match(base["fingerprint"], new["fingerprint"])
    gates = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    gates += [(name, better, bound)
              for name, (better, bound) in SEED_GATES.items()]
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        a = base["workloads"][workload]["metrics"]
        b = new["workloads"][workload]["metrics"]
        same_seed = base["workloads"][workload].get("seed") == \
            new["workloads"][workload].get("seed")
        for name, better, bound in gates:
            if name not in a or name not in b:
                continue
            if name in SEED_GATES and not same_seed:
                rows.append((workload, name, "skipped", "seeds differ"))
                continue
            if name not in SEED_GATES and not same_host:
                rows.append((workload, name, "skipped", "fingerprints differ"))
                continue
            verdict = gate(a[name], b[name], better, bound)
            change = worse_by(a[name]["median"], b[name]["median"], better)
            rows.append((workload, name, verdict,
                         "%.6g -> %.6g (%+.2f%% worse, bound %.0f%%)"
                         % (a[name]["median"], b[name]["median"],
                            100.0 * change, 100.0 * bound)))
            ok = ok and verdict == "ok"
    return rows, ok


# --- building and running aquabench -----------------------------------------

def build():
    """Configures (once) and builds aquabench. Returns False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "aquabench",
                  "-j4"])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    log("".join(f.readlines()[-30:]))
                log("aquabench build failed; log: %s" % log_path)
                return False
    return True


def run_aquabench(workload, seed, seconds, trace, smoke=False):
    """One aquabench process; returns its result JSON (None if it crashed)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "%s-s%s-%s%s" % (workload, "default" if seed is None else seed,
                           "trace" if trace else "plain",
                           "-smoke" if smoke else "")
    out = os.path.join(RESULTS_DIR, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--out", out]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, AQUA_LOG_LEVEL="error")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=2 * seconds + 60)
    except subprocess.TimeoutExpired:
        log("aquabench %s timed out" % workload)
        return None
    log(proc.stdout.rstrip())
    if not os.path.exists(out):
        log("aquabench %s exited %d without a result" % (workload,
                                                         proc.returncode))
        return None
    with open(out) as f:
        result = json.load(f)
    if proc.returncode != 0:
        result["correct"] = False
    return result


def host_fingerprint(result):
    host = result.get("host", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "lane_width": host.get("lane_width"),
            "compiler": host.get("compiler"),
            "build_type": host.get("build_type"), "commit": commit}


# --- modes -------------------------------------------------------------------

def single_run(args, spec):
    """The one-workload contract: the result JSON is the last stdout line."""
    if not build():
        return 1
    trace = args.trace not in (None, "0")
    result = run_aquabench(args.workload, args.seed, args.seconds, trace)
    if result is None:
        return 1
    block = result["per_layer"] if trace else result["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = block.get(m["name"])
        if got is None or got["value"] is None:
            log("warning: %s not reported" % m["name"])
        metrics[m["name"]] = {"value": None if got is None else got["value"],
                              "unit": m["unit"]}
    correct = bool(result["correct"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def repeat_runs(args, spec):
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    if not build():
        return 1
    seconds = args.seconds or spec["run_seconds"]
    runs = {w: [] for w in workloads}
    fingerprint = None
    failures = []
    for r in range(args.repeat):
        # Alternate the order so slow drift on the host hits every workload.
        for w in (workloads if r % 2 == 0 else workloads[::-1]):
            result = run_aquabench(w, args.seed, seconds, trace=False)
            if result is None or not result["correct"]:
                failures.append("%s repeat %d failed" % (w, r))
                continue
            fingerprint = fingerprint or host_fingerprint(result)
            runs[w].append(result)
    layers = {}
    if args.trace:
        for w in workloads:
            result = run_aquabench(w, args.seed, seconds, trace=True)
            if result is None or not result["correct"]:
                failures.append("%s traced pass failed" % w)
                continue
            fingerprint = fingerprint or host_fingerprint(result)
            layers[w] = result["per_layer"]
            if result["per_layer"]["trace.dropped_events"]["value"] != 0:
                failures.append("%s: the traced pass dropped events" % w)

    result_set = {"fingerprint": fingerprint, "repeat": args.repeat,
                  "seconds": seconds, "workloads": {}, "per_layer": layers}
    for w, results in runs.items():
        if not results:
            continue
        sums = {r["checksum"] for r in results}
        if len(sums) != 1:
            failures.append("%s: repeats disagree on the trace checksum" % w)
        metrics = {}
        for name, entry in results[0]["end_to_end"].items():
            values = [r["end_to_end"][name]["value"] for r in results]
            if any(v is None for v in values):
                continue
            metrics[name] = dict(summarize(values), unit=entry["unit"])
        result_set["workloads"][w] = {"checksum": results[0]["checksum"],
                                      "seed": results[0]["seed"],
                                      "metrics": metrics}

    print_result_set(result_set, spec)
    out = args.out or os.path.join(RESULTS_DIR, "latest.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(result_set, f, indent=1)
    print("result set: %s" % out)
    if args.history and not failures:
        append_history(result_set)
    for msg in failures:
        print("FAIL: %s" % msg)
    return 1 if failures else 0


def print_result_set(result_set, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({name: bound for name, (_, bound) in SEED_GATES.items()})
    fp = result_set["fingerprint"] or {}
    print("host: %s" % ", ".join("%s=%s" % kv for kv in fp.items()))
    print("%-16s %-22s %12s %11s %8s %6s  %s" % (
        "workload", "metric", "median", "IQR", "IQR/med", "bound", "unit"))
    for w, entry in result_set["workloads"].items():
        for name, s in entry["metrics"].items():
            bound = bounds.get(name)
            print("%-16s %-22s %12.6g %11.4g %7.2f%% %6s  %s" % (
                w, name, s["median"], s["iqr"], 100.0 * relative_spread(s),
                "-" if bound is None else "%.0f%%" % (100 * bound),
                s["unit"]))
        print("%-16s %-22s %12s" % (w, "checksum", entry["checksum"]))
    for w, layer in result_set["per_layer"].items():
        print("\nper layer, %s (traced pass):" % w)
        for name, m in layer.items():
            value = "null" if m["value"] is None else "%.6g" % m["value"]
            print("  %-32s %14s %s" % (name, value, m["unit"]))
        parts = ["hydro.solve_s", "fleet.fanout_s", "campaign.serial_s",
                 "state.checkpoint_s", "state.write_s"]
        values = [layer.get(p, {}).get("value") for p in parts]
        wall = layer.get("trace.wall_s", {}).get("value")
        if wall and all(v is not None for v in values):
            print("  components / traced wall: %.4f" % (sum(values) / wall))


def append_history(result_set):
    line = {"date": time.strftime("%Y-%m-%d"),
            "fingerprint": result_set["fingerprint"],
            "repeat": result_set["repeat"], "seconds": result_set["seconds"],
            "workloads": {
                w: {"seed": entry["seed"],
                    "metrics": {name: {"median": s["median"],
                                       "iqr": s["iqr"], "unit": s["unit"]}
                                for name, s in entry["metrics"].items()}}
                for w, entry in result_set["workloads"].items()}}
    with open(HISTORY_PATH, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    print("appended to %s" % HISTORY_PATH)


def smoke(spec):
    if not build():
        return 1
    start = time.monotonic()
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        result = run_aquabench(w, None, 1, trace=True, smoke=True)
        if result is None or not result["correct"]:
            problems.append("%s: run failed" % w)
            continue
        for block, wanted in (("end_to_end", spec["end_to_end"]),
                              ("per_layer", spec["per_layer"])):
            for m in wanted:
                got = result[block].get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        got["value"] is None or \
                        not math.isfinite(got["value"]):
                    problems.append("%s: %s missing, null or wrong unit (%r)"
                                    % (w, m["name"], got))
    elapsed = time.monotonic() - start
    print("smoke: %d workload(s) in %.1f s (budget %.0f s)"
          % (len(spec["workloads"]), elapsed, SMOKE_BUDGET_S))
    if elapsed > SMOKE_BUDGET_S:
        problems.append("smoke pass took %.1f s" % elapsed)
    for p in problems:
        print("FAIL: %s" % p)
    print("smoke: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def compare(paths, spec):
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f))
    rows, ok = compare_sets(sets[0], sets[1], spec)
    if not fingerprints_match(sets[0]["fingerprint"], sets[1]["fingerprint"]):
        print("fingerprints differ: only the seed-gated metrics compared")
    for workload, name, verdict, detail in rows:
        print("%-16s %-22s %-10s %s" % (workload, name, verdict, detail))
    print("compare: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float,
                   help="measuring budget of one run; with --workload, one "
                        "run whose result is the last line of stdout")
    p.add_argument("--trace", nargs="?", const="1", choices=("0", "1"),
                   help="single run: 0 end-to-end, 1 per-layer metrics; "
                        "otherwise add one traced pass per workload")
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--out", help="where to write the result set")
    p.add_argument("--history", action="store_true",
                   help="append the result set to benchmark/history.jsonl")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        p.error("unknown workload %r (have: %s)" % (args.workload,
                                                    ", ".join(names)))
    if args.compare:
        return compare(args.compare, spec)
    if args.smoke:
        return smoke(spec)
    if args.workload and args.seconds:
        return single_run(args, spec)
    args.trace = args.trace == "1"
    return repeat_runs(args, spec)


if __name__ == "__main__":
    sys.exit(main())
