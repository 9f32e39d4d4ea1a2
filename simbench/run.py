#!/usr/bin/env python3
"""Build the simbench driver from source and run one benchmark workload.

    python3 simbench/run.py --workload fig7-hitpath --seed 1 --seconds 15 --trace 0
    python3 simbench/run.py --smoke

The driver is this directory's CMake package, which compiles the warden
library from ../src. It is configured once into .bench_build/simbench under
the repository root and rebuilt incrementally on every run; build output
goes to stderr, so the last line of stdout is the driver's JSON result.
Scratch files (traces, reports, spans, event logs) go to
.bench_build/simbench-work.

--smoke runs every workload at a tiny scale, untraced and traced, and
checks that each metric BENCHMARK.json names is printed with its unit and
that no simulation failed. Exit status 0 means every check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
WORK = os.path.join(ROOT, ".bench_build", "simbench-work")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("fig7-hitpath", "multinode-lazy", "fig7-observed")
SMOKE_SCALE = "0.05"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"simbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("simbench: build failed", file=sys.stderr)
            return None
    return os.path.join(BUILD, "simbench")


def driver_command(binary, workload, seed, seconds, trace, scale=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--digests", DIGESTS, "--work", WORK]
    if scale is not None:
        cmd += ["--scale", scale]
    return cmd


def check_result(done, wanted):
    """Problems with one smoke run's output, as a list of strings."""
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"exit code {done.returncode}"]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["last line of stdout is not JSON"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("a simulation failed its checks")
    if "# failed_frac = 0 fraction" not in lines:
        problems.append("failed_frac is not printed as 0")
    metrics = result.get("metrics", {})
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} has unit {got.get('unit')}, "
                            f"want {metric['unit']}")
    extra = set(metrics) - {metric["name"] for metric in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = driver_command(binary, workload, 1, 0, trace, SMOKE_SCALE)
            try:
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      timeout=RUN_TIMEOUT_S)
                problems = check_result(done, spec[section])
            except subprocess.TimeoutExpired:
                problems = ["timed out"]
            ok &= not problems
            status = "PASS" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    cmd = driver_command(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("simbench: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
