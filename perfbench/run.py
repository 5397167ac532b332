#!/usr/bin/env python3
"""Rill's benchmark: build it from source, self-test it, run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload grid_ccr_large --seed 1 --seconds 20 --trace 0

Workloads: grid_ccr_large, grid_dsm_delta_large, paper_sweep.  --trace 0
prints the end-to-end metrics; --trace 1 makes the traced run that prints
the per-layer metrics and writes its spans to .bench_out/.  The last line
of standard output is the JSON result; the lines before it name every
metric with its unit, and every output check.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/.  The first
run configures and compiles the rill library and the benchmark (CMake, no
other dependencies); later runs only check that the build is current.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring the two binaries up to date."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "rill_bench", "rill_bench_selftest"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    want = expected_metrics(args.trace)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "rill_bench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        fail("self-test failed")

    cmd = [os.path.join(build_dir, "rill_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rill_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"rill_bench exited with {proc.returncode}")

    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json's "
             f"{sorted(want.items())}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
