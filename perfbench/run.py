#!/usr/bin/env python3
"""Builds the campaign benchmark and runs one workload.

    python3 perfbench/run.py --workload mode --seed 0 --seconds 40 --trace 0

Run it from the repository root. The first call configures and builds
perfbench/ (which compiles ../src and the campaign scenarios of ../bench)
into .bench_build/perfbench; later calls rebuild only what changed.

--trace 0 times set-up (process start to warm-up done) in SETUP_LAUNCHES
separate `--setup-only` processes and reports their median as setup_s,
then runs the timed passes. --trace 1 runs the traced invocation and
reports the per-layer metrics. Build output goes to stderr; the last
stdout line is the result JSON. The exit code is non-zero when the build
or a correctness check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
SETUP_LAUNCHES = 5
# Every invocation must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds campaign_bench; output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "campaign_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def setup_seconds(bench_args):
    """Median wall time of SETUP_LAUNCHES set-up-only processes."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        # A blocking wait() returns as soon as the child exits; a wait with
        # a timeout polls in steps of up to 50 ms, which would swamp a
        # set-up of a few tens of ms. The timer kills a hung child instead.
        start = time.perf_counter()
        proc = subprocess.Popen([BINARY, *bench_args, "--setup-only"],
                                stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        returncode = proc.wait()
        times.append(time.perf_counter() - start)
        watchdog.cancel()
        if returncode != 0:
            return None
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["network", "environment", "mode"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 1
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--results", os.path.join(ROOT, "results")]

    setup_s = None
    if args.trace == 0:
        setup_s = setup_seconds(bench_args)
        if setup_s is None:
            print("set-up failed", file=sys.stderr)
            return 1

    done = subprocess.run([BINARY, *bench_args], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        print("no result from campaign_bench", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    if setup_s is not None:
        print(f"{'setup_s':<36} {setup_s:.6g} s (median of "
              f"{SETUP_LAUNCHES} set-up launches)")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
