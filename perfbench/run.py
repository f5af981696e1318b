#!/usr/bin/env python3
"""Builds the DHGCN benchmark from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload {train,eval,serve} --seed N \
      --seconds S --trace {0,1}
  python3 perfbench/run.py --selftest

The library and the benchmark are built (CMake, Release) into
.bench_build/perfbench under the checkout; the first run builds, later
runs only check that the build is current. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Metric names
and units are checked against BENCHMARK.json: with --trace 0 every
end-to-end metric must be present; with --trace 1 the per-layer metrics a
workload does not exercise are reported as 0. Traced runs also write a
Chrome trace-event file under .bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "4"
# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs a build step with its output on stderr, keeping stdout for
    the result."""
    return subprocess.run(cmd, check=False, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed", 3)
    if run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", BUILD_JOBS]) != 0:
        fail(f"building {target} failed", 3)
    return os.path.join(BUILD_DIR, target)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=False, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def complete_metrics(result, trace):
    """Checks the binary's metrics against BENCHMARK.json; in a traced run
    fills the per-layer metrics this workload does not run with 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    for name, metric in got.items():
        if name not in units:
            fail(f"metric {name} is not listed in BENCHMARK.json", 4)
        if metric["unit"] != units[name]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {units[name]}", 4)
    ordered = {}
    for name, unit in units.items():
        if name in got:
            ordered[name] = got[name]
        elif trace:
            ordered[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} missing from the result", 4)
    result["metrics"] = ordered
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["train", "eval", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], check=False).returncode)
    if args.workload is None:
        fail("--workload is required", 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    binary = build("perfbench")
    work_dir = os.path.join(ROOT, ".bench_build", "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 5)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}", 5)
    for line in lines[:-1]:
        print(line)
    result = complete_metrics(json.loads(lines[-1]), args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
