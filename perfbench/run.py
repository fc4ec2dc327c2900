#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command per workload run.

    python3 perfbench/run.py --workload net_adhoc --seed 1 --seconds 15 --trace 0

Builds the system from the source tree this file sits in (CMake, into
.bench_build/perfbench), runs the csm_perfbench measurement program on one
workload generated from --seed, checks its outputs, and prints the
metrics: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics with the end-to-end metric each one
should move. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build logs and progress go
to standard error. Exits 0 only when every check passed. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170  # the measurement itself; the build comes on top

# Per-layer metric -> the end-to-end metric (and workloads) it should move.
LAYER_MOVES = {
    "storage.load_s": "setup_s on every workload",
    "storage.dict_build_s": "setup_s on every workload",
    "storage.content_hash_s": "append_tmean_s, query_tmean_s on "
                              "dashboard_append",
    "storage.clone_s": "query_tmean_s on net_adhoc",
    "storage.sort_s": "query_tmean_s on net_adhoc; none on cube_q1_hash",
    "storage.sort_rows_per_s": "query_tmean_s on net_adhoc",
    "storage.sort_spill_s": "none kept (probe of the out-of-core path)",
    "storage.sort_runs": "none kept (probe of the out-of-core path)",
    "storage.spilled_bytes": "none kept (probe of the out-of-core path)",
    "storage.append_s": "append_tmean_s on every workload",
    "opt.lower_s": "query_tmean_s on every workload",
    "opt.est_entries": "peak_state_entries on net_adhoc",
    "opt.footprint_ratio": "peak_state_entries on net_adhoc",
    "workflow.parse_s": "setup_s on dashboard_append",
    "workflow.fuse_s": "setup_s on dashboard_append",
    "workflow.shared_frac": "setup_s on dashboard_append",
    "exec.plan_self_s": "query_tmean_s on every workload",
    "exec.sort_self_s": "query_tmean_s on net_adhoc",
    "exec.scan_self_s": "query_tmean_s on every workload",
    "exec.combine_self_s": "query_tmean_s on cube_q1_hash",
    "exec.rows_scanned": "query_tmean_s on every workload",
    "exec.batches": "query_tmean_s on every workload",
    "exec.batches_skipped": "query_tmean_s on every workload",
    "exec.peak_hash_bytes": "peak_rss_mb on every workload",
    "exec.morsels": "query_tmean_s on cube_q1_hash",
    "exec.steals": "query_tmean_s on cube_q1_hash",
    "exec.pool_threads": "query_tmean_s on cube_q1_hash",
    "session.cache_hit_frac": "query_tmean_s on dashboard_append",
    "session.query_self_s": "query_tmean_s on dashboard_append",
    "session.append_self_s": "append_tmean_s on dashboard_append",
    "session.cold_batch_s": "setup_s on dashboard_append",
    "delta.apply_self_s": "append_tmean_s on dashboard_append",
    "delta.dirty_regions": "append_tmean_s on dashboard_append",
    "delta.patched_measures": "append_tmean_s on dashboard_append",
    "delta.recomputed_measures": "append_tmean_s on dashboard_append",
    "delta.patched_frac": "append_tmean_s on dashboard_append",
    "obs.trace_overhead_frac": "none (end-to-end runs are untraced)",
    "obs.span_coverage_min": "none (span-phase rule, must be >= 0.95)",
    "delta.apply_coverage_min": "none (share of session.append in spans)",
}

# Printed in the end-to-end table after the BENCHMARK.json metrics, but not
# in the result line: the median, the tail and rows_per_s (rows over the
# plain sum of read times) follow the host's speed more than the
# program's (README.md "Steadiness"); failed_frac is 0 on every correct
# run.
TABLE_ONLY = [("query_p50_s", "s"), ("query_tail_s", "s"),
              ("rows_per_s", "rows/s"), ("append_p50_s", "s"),
              ("append_tail_s", "s"), ("failed_frac", "ratio")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds csm_perfbench; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", BUILD_DIR, "--target", "csm_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "csm_perfbench")


def measure(binary, args):
    """Runs the measurement program; returns its raw JSON and exit code."""
    scratch_base = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(scratch_base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_base)
    env = dict(os.environ, TMPDIR=scratch)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", ROOT, "--tmp", scratch],
            stdout=subprocess.PIPE, env=env, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError("csm_perfbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout), proc.returncode


def plan_notice(raw, workload):
    """Compares the run's plan with the one recorded in plans.json."""
    expected = load_json(os.path.join(HERE, "plans.json")).get(workload, {})
    moved = ["%s: recorded %r, now %r" % (k, v, raw["info"].get(k))
             for k, v in sorted(expected.items())
             if raw["info"].get(k) != v]
    if not moved:
        return None
    return ("NOTICE: the plan differs from the recorded one, so a moved "
            "number may be a plan flip rather than a faster layer:\n  " +
            "\n  ".join(moved))


def print_header(raw, args):
    info = raw["info"]
    print("workload %s  seed %s  rows %s  closed loop, 1 client" %
          (args.workload, info.get("seed"), info.get("rows")))
    print("hardware_threads %s  parallel_threads %s  (min(4, nproc))" %
          (info.get("hardware_threads"), info.get("parallel_threads")))
    print("plan %s  sort key %s" % (info.get("plan_engine"),
                                    info.get("plan_sort_key")))
    print("run %s" % info.get("result_sort_key"))


def quartile_note(samples):
    q1, _, q3 = report.quartiles(samples)
    return "n=%d, q1 %s, q3 %s" % (len(samples), report.fmt(q1),
                                  report.fmt(q3))


def trim_note(samples):
    return "n=%d, %d cut at each end" % (len(samples),
                                          int(report.TRIM * len(samples)))


def end_to_end_report(raw, specs):
    metrics = report.end_to_end(raw)
    notes = {
        "query_tmean_s": trim_note(raw["query_s"]),
        "append_tmean_s": trim_note(raw["append_s"]),
        "query_tail_s": report.tail_label(raw["query_s"]),
        "append_tail_s": report.tail_label(raw["append_s"]),
        "query_p50_s": quartile_note(raw["query_s"]),
        "append_p50_s": quartile_note(raw["append_s"]),
        "setup_s": "median of %d" % len(raw["setup_s"]),
        "failed_frac": "%d of %d ops" % (raw["failed"], raw["attempted"]),
    }
    rows = [("metric", "value", "unit", "samples")]
    for name, unit in [(s["name"], s["unit"]) for s in specs] + [
            ("(not gated)", "")] + TABLE_ONLY:
        value = report.fmt(metrics[name]) if name in metrics else ""
        rows.append((name, value, unit, notes.get(name, "")))
    print(report.table(rows))
    return metrics


def per_layer_report(raw, specs):
    layers = raw["layers"]
    rows = [("layer metric", "value", "unit", "moves -> on")]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        # A layer this workload does not run reads 0.
        metrics[name] = float(layers.get(name, 0.0))
        rows.append((name, report.fmt(metrics[name]), spec["unit"],
                     LAYER_MOVES.get(name, "")))
    print(report.table(rows))
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    started = time.monotonic()
    try:
        binary = build()
        log("built in %.1f s" % (time.monotonic() - started))
        raw, code = measure(binary, args)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1

    print_header(raw, args)
    notice = plan_notice(raw, args.workload)
    if notice:
        print(notice)
    if args.trace:
        metrics = per_layer_report(raw, spec["per_layer"])
        specs = spec["per_layer"]
    else:
        metrics = end_to_end_report(raw, spec["end_to_end"])
        specs = spec["end_to_end"]
    coverage = raw["layers"].get("delta.apply_coverage_min", 1.0)
    if args.trace and coverage < 0.95:
        print("NOTICE: delta.apply spans cover only %.3f of a session.append "
              "span; the rest (the table append) has no span" % coverage)
    for err in raw["errors"]:
        print("FAILED: %s" % err)
    correct = code == 0 and raw["failed"] == 0
    print(report.result_line(correct, raw["attempted"], raw["failed"], metrics,
                             specs), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
