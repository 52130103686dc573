#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

Usage (from the repo root):
    python3 perfbench/run.py --workload paper_pipeline|campus_10k|corpus_stream
                             --seed N --seconds S --trace 0|1

Builds perfbench/ (and the tracemod libraries from src/) as a Release
CMake project under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs perfbench_selftest, then runs the workload in
its own perfbench_driver process.  The driver's output is relayed; its
last line is the result object, printed only after checking that it
carries exactly the metrics BENCHMARK.json declares for this mode.  Any
failure exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_pipeline", "campus_10k", "corpus_stream")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout stays ours."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(build_dir):
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
        fail("configure failed")
    if run_logged(["cmake", "--build", build_dir, "-j", jobs], 800) != 0:
        fail("build failed")
    if run_logged([os.path.join(build_dir, "perfbench_selftest")], 30) != 0:
        fail("perfbench_selftest failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("driver printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared_metrics(trace):
        fail("driver metrics differ from BENCHMARK.json")
    if result["attempted"] < 1:
        fail("no operation attempted")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                               ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", build_dir,
           "--pins", os.path.join(HERE, "pins.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
