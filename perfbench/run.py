#!/usr/bin/env python3
"""Runs one radb benchmark workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark
from source into $CARGO_TARGET_DIR (default .bench_build), runs the
workload, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics, adds the
roofline measured in a separate process, and writes the span log to
<build>/traces/. Exits non-zero when the build fails, a run fails, or
any result is wrong. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("la_dense", "tuple_relational", "service_mix", "durable_graph")
DEADLINE_S = 170  # every run, build excluded, ends well within 180 s
ROOF_UNITS = {
    "roofline.fma_gflops_1t": "GFLOP/s",
    "roofline.fma_gflops": "GFLOP/s",
    "roofline.triad_gbs": "GB/s",
    "roofline.triad_array_mib": "MiB",
    "roofline.llc_mib": "MiB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(src, build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "radb_perfbench",
           "radb_roofline", "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_json(cmd, timeout):
    """Runs cmd, returns (exit code, parsed last stdout line or None)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 1, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 1, None


def add_roofline(metrics, roof):
    """Merges the roofline and each kernel rate's share of its roof."""
    for name, unit in ROOF_UNITS.items():
        metrics[name] = {"value": roof[name], "unit": unit}
    # Parallel kernels against the all-thread peak, the sequential
    # inverse against one thread, streaming kernels against the triad.
    roofs = {
        "la.gemm_gflops": roof["roofline.fma_gflops"],
        "la.tsmm_gflops": roof["roofline.fma_gflops"],
        "la.inverse_gflops": roof["roofline.fma_gflops_1t"],
        "la.gemv_gbs": roof["roofline.triad_gbs"],
        "la.outer_sum_gbs": roof["roofline.triad_gbs"],
        "la.spvm_gbs": roof["roofline.triad_gbs"],
    }
    for rate, peak in roofs.items():
        value = metrics.get(rate, {}).get("value", 0.0)
        name = rate.rsplit("_", 1)[0] + "_pct_roof"
        metrics[name] = {"value": 100.0 * value / peak if peak > 0 else 0.0,
                         "unit": "%"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="self-test: feed a wrong expected answer")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(here, build_dir):
        log("build failed")
        return 1
    start = time.monotonic()

    metrics_extra = {}
    if args.trace:
        rc, roof = run_json([os.path.join(build_dir, "radb_roofline")],
                            timeout=60)
        if rc != 0 or roof is None:
            log("roofline probe failed")
            return 1
        metrics_extra = roof

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "radb_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        rc, result = run_json(cmd, timeout=max(1, DEADLINE_S -
                                                (time.monotonic() - start)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        log(f"workload run failed (exit {rc})")
        return rc or 1
    if args.trace:
        add_roofline(result["metrics"], metrics_extra)
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
