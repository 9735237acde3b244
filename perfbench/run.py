#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark (perfbench/README.md).

One run of one workload:

    python3 perfbench/run.py --workload district_ticks --seed 1 --seconds 15 --trace 0

builds the driver from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, and passes its output through: the host
record, the threads by role, every metric with unit and sample count, and a
last line of JSON. The exit code is the driver's: 0 when every correctness
check passed, 1 when one failed, 2 on a build or run error.

Steadiness report (A/A spread and the depth check for capacity_rps):

    python3 perfbench/run.py --workload district_ticks --steadiness 10 --seed 1

runs the workload with seeds seed..seed+9, prints each end-to-end metric's
median, quartiles and spread (IQR / median) against its bound in
BENCHMARK.json, then runs once with twice the capacity phase's in-flight
depth to show the chosen depth already saturates the bottleneck.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("district_ticks", "campus_fanout", "city_backfill")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then brings the driver up to date; None on failure."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(bdir, "perfbench")


def run_driver(binary, workload, seed, seconds, trace, depth_factor=1):
    """Runs the driver once; returns (exit code, stdout, stderr)."""
    out = os.path.join(build_dir(), f"trace-{workload}-seed{seed}.jsonl")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", out, "--depth-factor", str(depth_factor)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 2, "", f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n"
    return proc.returncode, proc.stdout, proc.stderr


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steadiness(binary, args):
    values = {}
    for i in range(args.steadiness):
        seed = args.seed + i
        code, out, err = run_driver(binary, args.workload, seed, args.seconds, 0)
        res = result_of(out)
        if code != 0 or res is None or not res.get("correct"):
            sys.stderr.write(out + err)
            print(f"perfbench: seed {seed} failed (exit {code})", file=sys.stderr)
            return 1
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: {line}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    limits = bounds()
    print(f"\n{args.workload}: {args.steadiness} runs, seeds {args.seed}.."
          f"{args.seed + args.steadiness - 1}, {args.seconds} s each")
    print(f"{'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>7} {'bound/3':>8}")
    steady = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = limits.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                mark, steady = "  OVER BOUND", False
            elif spread > bound / 3:
                mark = "  over bound/3"
        print(f"{name:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else float('nan'):>7.3f} "
              f"{(bound or float('nan')) / 3:>8.4f}{mark}")
    if args.workload == "city_backfill":
        print("\ncapacity_rps depth check: not applicable (one caller, "
              "no in-flight depth)")
        return 0 if steady else 1
    base = statistics.median(values["capacity_rps"])
    code, out, err = run_driver(binary, args.workload, args.seed, args.seconds,
                                0, depth_factor=2)
    res = result_of(out)
    if code != 0 or res is None:
        sys.stderr.write(out + err)
        return 1
    doubled = res["metrics"]["capacity_rps"]["value"]
    print(f"\ncapacity_rps at twice the in-flight depth: {doubled:.6g} vs median "
          f"{base:.6g} at the chosen depth ({doubled / base:.3f}x)")
    return 0 if steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="run RUNS seeds and print medians and quartiles")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.steadiness > 0:
        return steadiness(binary, args)
    code, out, err = run_driver(binary, args.workload, args.seed, args.seconds,
                                args.trace)
    sys.stderr.write(err)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
