#!/usr/bin/env python3
"""The repository benchmark: builds the benchmark program and runs one workload.

Usage (from the root of a checkout):
  python3 repobench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                           [--smoke]

Builds repobench/cpp against the libraries in src/ (two trees under
$CARGO_TARGET_DIR or .bench_build: telemetry probes off for the untraced
run, on for the traced run), runs the workload for S seconds and prints a
metric table followed by one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics; with --workload all, each workload's table and one JSON
line whose metric names are prefixed "<workload>.". Exits 1 if any output
check fails, 2 on usage errors or when the checkout is incomplete.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # write nothing into the source tree
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import spans as spanlib  # noqa: E402

WORKLOADS = ("paper_sweep", "field_rcad", "longrun_leakage")
DEFAULT_SEED = 0  # paper seeds; golden CSVs and recorded digests apply
# The program measures for --seconds, then finishes the result in progress
# and its checks; no result takes near this long on any workload.
LAST_RESULT_MARGIN_S = 60
TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)


def die(message, code=2):
    print(f"repobench: {message}", file=sys.stderr)
    sys.exit(code)


def ensure_built(variant, telemetry):
    """Configures (once) and builds one build tree; returns the binary."""
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tree = os.path.join(build_root, "repobench-" + variant)
    cache = os.path.join(tree, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(tree)  # configured from another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DTEMPRIV_TELEMETRY=" + ("ON" if telemetry else "OFF")])
    steps.append(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)])
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        # Build logs go to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            die(f"build failed: {' '.join(step)}", 1)
    return os.path.join(tree, "repobench")


def run_bench(binary, args, seconds):
    try:
        proc = subprocess.run([binary] + args + ["--seconds", str(seconds)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=seconds + LAST_RESULT_MARGIN_S)
    except subprocess.TimeoutExpired:
        die(f"{' '.join(args)} timed out", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"benchmark program exited {proc.returncode}", 1)
    return json.loads(lines[-1])


def nearest_rank(ordered, p):
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def timing(values):
    """Median plus the highest percentile with >= 10 samples beyond it
    (tail_pct None when there are too few samples for any)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"p50": nearest_rank(ordered, 50), "n": n, "tail_pct": None}
    for p in TAIL_PERCENTILES:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= 10:
            out.update(tail_pct=p, tail=nearest_rank(ordered, p), beyond=beyond)
    return out


def end_to_end(result):
    its = result["iterations"]
    ttr = [it["time_to_result_s"] for it in its]
    samples = {
        "time_to_result_s": ttr,
        "setup_s": [s for it in its for s in it["setup_s"]],
        "score_s": [it["score_s"] for it in its],
        "packets_per_s": [it["packets"] / it["time_to_result_s"] for it in its],
        "scenarios_per_s": [it["scenarios"] / it["time_to_result_s"] for it in its],
        "job_ms": [s * 1e3 for it in its for s in it["job_s"]],
    }
    stats = {k: timing(v) for k, v in samples.items()}
    jobs = stats.pop("job_ms")
    values = {k: s["p50"] for k, s in stats.items()}
    values["job_p50_ms"] = jobs["p50"]
    # A campaign result holds hundreds of jobs: its p95 is taken per result
    # and the median over results reported, so one result slowed by the host
    # does not move the tail. Single-job results pool their jobs.
    if all(len(it["job_s"]) >= 20 for it in its):
        values["job_p95_ms"] = statistics.median(
            nearest_rank(sorted(it["job_s"]), 95) * 1e3 for it in its)
    else:
        values["job_p95_ms"] = nearest_rank(sorted(samples["job_ms"]), 95)
    values["peak_rss_mb"] = result["peak_rss_mb"]
    stats["job_ms"] = jobs
    return values, stats


def per_layer(traced, untraced, spans_path, wanted):
    its = traced["iterations"]
    values = {}
    for name in its[0]["layers"]:
        values[name] = statistics.median(it["layers"][name] for it in its)
    for layer, g in spanlib.rollup(spanlib.load(spans_path)).items():
        values[layer + ".self_s"] = g["self_s"]
    for m in wanted:  # a layer with no span on this workload
        if m["name"].endswith(".self_s"):
            values.setdefault(m["name"], 0.0)
    values["telemetry.overhead_ratio"] = (
        statistics.median(it["time_to_result_s"] for it in its)
        / statistics.median(it["time_to_result_s"] for it in untraced["iterations"]))
    return values


def checks(results, workload, seed, smoke):
    """Jobs and checks of the benchmark runs plus the digest checks."""
    its = [it for r in results for it in r["iterations"]]
    attempted = sum(it["attempted"] for it in its)
    failed = sum(it["failed"] for it in its)
    failures = [f for it in its for f in it["failures"]]
    digests = {it["digest"] for it in its}
    attempted += 1
    if len(digests) != 1:
        failed += 1
        failures.append("simulated statistics differ between iterations")
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f)[workload]["smoke" if smoke else "full"]
        attempted += 1
        if digests != {recorded}:
            failed += 1
            failures.append(f"digest {sorted(digests)} != recorded {recorded}")
    return attempted, failed, failures, sorted(digests)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.exists(bench_json):
        die("src/ or BENCHMARK.json missing: run from a full checkout")
    with open(bench_json) as f:
        spec = json.load(f)

    plain = ensure_built("plain", telemetry=False)
    traced_bin = ensure_built("traced", telemetry=True)
    if args.workload != "all":
        attempted, failed, metrics = run_workload(args.workload, args, spec, plain,
                                                  traced_bin)
    else:
        attempted, failed, metrics = 0, 0, {}
        for workload in WORKLOADS:
            a, f, m = run_workload(workload, args, spec, plain, traced_bin)
            attempted, failed = attempted + a, failed + f
            metrics.update({f"{workload}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_workload(workload, args, spec, plain, traced_bin):
    """Runs one workload, prints its metric table; returns the tallies."""
    common = ["--workload", workload, "--seed", str(args.seed),
              "--golden-dir", os.path.join(ROOT, "tests", "golden")]
    if args.smoke:
        common.append("--smoke")

    stats = {}
    if args.trace == 0:
        untraced = run_bench(plain, common, args.seconds)
        results = [untraced]
        values, stats = end_to_end(untraced)
        wanted = spec["end_to_end"]
    else:
        half = max(1, args.seconds // 2)
        untraced = run_bench(plain, common, half)
        spans_path = os.path.join(
            os.path.dirname(os.path.dirname(traced_bin)),
            f"spans-{workload}-{args.seed}.jsonl")
        traced = run_bench(traced_bin, common + ["--traced", "--spans", spans_path],
                           max(1, args.seconds - half))
        results = [untraced, traced]
        wanted = spec["per_layer"]
        values = per_layer(traced, untraced, spans_path, wanted)
        print(f"spans: {spans_path} (python3 repobench/spans.py FILE for the roll-up)")

    attempted, failed, failures, digests = checks(results, workload, args.seed,
                                                  args.smoke)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die(f"metric {m['name']} not produced by {workload}", 3)
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"workload {workload} seed {args.seed} "
          f"iterations {sum(len(r['iterations']) for r in results)} digest {','.join(digests)}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs and checks)")
    for f in failures:
        print(f"FAILED: {f}")
    for name, m in metrics.items():
        line = f"{name:<32} {m['value']:>16.6g} {m['unit']}"
        s = stats.get(name) or (stats.get("job_ms") if name.startswith("job_") else None)
        if s and s["tail_pct"] is None:
            line += f"  (p50 of n={s['n']}; no percentile has 10 samples beyond)"
        elif s:
            line += (f"  (p50 of n={s['n']}; p{s['tail_pct']:g} {s['tail']:.6g} "
                     f"with {s['beyond']} beyond)")
        print(line)
    return attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
