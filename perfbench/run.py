#!/usr/bin/env python3
"""The repo benchmark: one command for the walk, sweep and serve workloads.

    python3 perfbench/run.py --workload walk|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
repetitions of the workload, each in a fresh process inside a fresh work
directory, until --seconds have been spent (at least three). It checks
every repetition's outputs and that all repetitions did identical work,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over repetitions);
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics, including the tracing overhead. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("walk", "sweep", "serve")
MIN_REPS = 3
# One invocation must end within 180 s; stop starting repetitions here.
HARD_STOP_S = 150.0
REP_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "configs_per_s": "1/s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "trace.gen_ns_per_op": "ns",
    "trace.mmap_ns_per_op": "ns",
    "trace.record_s": "s",
    "cpu.ns_per_instr": "ns",
    "cpu.ns_per_cycle": "ns",
    "mem.ns_per_access": "ns",
    "mem.l1_misses": "count",
    "mem.mshr_full_waits": "count",
    "mem.dram_reads": "count",
    "mem.dram_row_hit_ratio": "ratio",
    "sim.ns_per_instr": "ns",
    "sim.corun_ns_per_instr": "ns",
    "sim.residual_ns_per_instr": "ns",
    "sim.instructions": "count",
    "sim.cycles": "count",
    "camat.pure_misses": "count",
    "exp.jobs_executed": "count",
    "exp.cache_hits": "count",
    "exp.hit_ratio": "ratio",
    "exp.spec_useful_ratio": "ratio",
    "exp.batch_wait_s": "s",
    "exp.worker_busy_ratio": "ratio",
    "model.profile_s": "s",
    "model.us_per_config": "us",
    "model.mr1_err_mean": "ratio",
    "core.walk_steps": "count",
    "core.configs_on_path": "count",
    "core.walk_s": "s",
    "sched.profile_s": "s",
    "sched.assign_us": "us",
    "sched.corun_s": "s",
    "srv.ack_p50_ms": "ms",
    "srv.fresh_p50_ms": "ms",
    "srv.fresh_p99_ms": "ms",
    "srv.memo_p50_ms": "ms",
    "srv.latency_p50_ms": "ms",
    "srv.latency_p99_ms": "ms",
    "srv.latency_samples": "count",
    "srv.queue_wait_p50_ms": "ms",
    "srv.service_p50_ms": "ms",
    "srv.journal_bytes_per_job": "bytes",
    "srv.memo_hit_ratio": "ratio",
    "srv.degraded": "count",
    "srv.refused": "count",
    "obs.trace_overhead_pct": "%",
    "facade.self_s": "s",
    "core.self_s": "s",
    "exp.self_s": "s",
    "sched.self_s": "s",
    "trace.self_s": "s",
    "srv.self_s": "s",
}

# Work counts every repetition of one (workload, seed) must repeat exactly.
# (Traced repetitions run extra checks, so the operation count is not one.)
EXACT_FIELDS = ("instructions", "configs", "jobs", "digest", "outcome", "counts")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fixed_workers():
    """The engine worker count: at most nproc - 1 (never auto), capped at 3."""
    try:
        ncpu = len(os.sched_getaffinity(0))
    except AttributeError:
        ncpu = os.cpu_count() or 1
    return max(1, min(3, ncpu - 1))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds lpm_perfbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "lpm_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "lpm_perfbench")


def run_rep(binary, args, workers, traced, index):
    """One repetition in a fresh process and a fresh work directory."""
    workdir = os.path.join(build_dir(), "runs",
                           "%s-%d-%d-%d" % (args.workload, args.seed, os.getpid(), index))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--workers", str(workers), "--trace", "1" if traced else "0"]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                              timeout=REP_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("repetition exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps):
    def per_rep(f):
        return median([f(r) for r in reps])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "setup_s": per_rep(lambda r: r["setup_s"]),
        "run_s": per_rep(lambda r: r["run_s"]),
        "sim_minstr_per_s": per_rep(lambda r: r["instructions"] / r["run_s"] / 1e6),
        "configs_per_s": per_rep(lambda r: r["configs"] / r["run_s"]),
        "jobs_per_s": per_rep(lambda r: r["jobs"] / r["run_s"]),
        "peak_rss_mb": per_rep(lambda r: r["peak_rss_mb"]),
        "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }


def pct(samples, p):
    """Percentile p of samples; None unless >= 10 samples lie beyond it."""
    if len(samples) * (100.0 - p) / 100.0 < 10:
        return None
    s = sorted(samples)
    pos = p / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def per_layer(untraced, traced):
    """Per-layer metrics: traced medians, exact counts, pooled latencies.
    A layer the workload does not exercise reads 0."""
    values = {name: 0.0 for name in PER_LAYER}
    for key in traced[0]["layers"]:
        values[key] = median([r["layers"][key] for r in traced])
    counts = traced[0]["counts"]
    values.update({k: v for k, v in counts.items() if k in PER_LAYER})
    executed = counts.get("exp.jobs_executed", 0.0)
    hits = counts.get("exp.cache_hits", 0.0)
    values["exp.hit_ratio"] = hits / (hits + executed) if hits + executed else 0.0

    pooled = {}
    for r in traced:
        for k, v in r["samples_ms"].items():
            pooled.setdefault(k, []).extend(v)
    for name, key, p in (("srv.ack_p50_ms", "ack", 50), ("srv.fresh_p50_ms", "fresh", 50),
                         ("srv.fresh_p99_ms", "fresh", 99), ("srv.memo_p50_ms", "memo", 50),
                         ("srv.latency_p50_ms", "all", 50), ("srv.latency_p99_ms", "all", 99)):
        samples = pooled.get(key, [])
        value = pct(samples, p)
        if samples:
            log("perfbench: %s from %d samples%s" % (
                name, len(samples), "" if value is not None else " (too few; reported 0)"))
        values[name] = value if value is not None else 0.0
    values["srv.latency_samples"] = float(len(pooled.get("all", [])))
    values["obs.trace_overhead_pct"] = 100.0 * (
        median([r["run_s"] for r in traced]) / median([r["run_s"] for r in untraced]) - 1.0)
    return values


def consistency(reps):
    """Messages for every exact field that differs between repetitions."""
    problems = []
    for field in EXACT_FIELDS:
        seen = {json.dumps(r[field], sort_keys=True) for r in reps}
        if len(seen) > 1:
            problems.append("%s differs between repetitions: %s" % (field, sorted(seen)))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs, for the benchmark's own tests")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    workers = fixed_workers()
    log("perfbench: workload=%s seed=%d workers=%d trace=%d" % (
        args.workload, args.seed, workers, args.trace))

    untraced, traced = [], []
    start = time.monotonic()
    try:
        while True:
            t0 = time.monotonic()
            untraced.append(run_rep(binary, args, workers, False, 2 * len(untraced)))
            if args.trace:
                traced.append(run_rep(binary, args, workers, True, 2 * len(traced) + 1))
            step = time.monotonic() - t0
            elapsed = time.monotonic() - start
            if len(untraced) >= MIN_REPS and (
                    elapsed + step > args.seconds or elapsed + step > HARD_STOP_S):
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        log("perfbench: %s" % e)
        return 1

    reps = untraced + traced
    problems = consistency(reps)
    for r in reps:
        for f in r["failures"]:
            problems.append("check failed: " + f)
    for p in problems:
        log("perfbench: " + p)
    first = untraced[0]
    print("digest %s" % first["digest"])
    print("outcome %s" % json.dumps(first["outcome"]))
    print("counts %s" % json.dumps(first["counts"], sort_keys=True))
    print("repetitions %d untraced, %d traced" % (len(untraced), len(traced)))

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        values, units = per_layer(untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(untraced), END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
