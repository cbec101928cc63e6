#!/usr/bin/env python3
"""TE-pipeline benchmark: build the program from source, run one workload.

    python3 perfbench/run.py --workload wan_te --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload wan_te --probe mwu_demand

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the program's libraries from src/ plus the
harness) under $CARGO_TARGET_DIR, default .bench_build; later calls only
rebuild what changed. The harness prints one JSON object as its last line
of standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end figures, with --trace 1 the
per-layer ones (see perfbench/README.md).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wan_te", "scale_te", "serve_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the harness; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"program sources not found under {ROOT}/src")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "3", "--target",
                      "te_bench", "te_bench_selftest"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-8000:])
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out


def child_env():
    env = dict(os.environ)
    # Every timed build is cold and nothing is read from or left on disk.
    env["SOR_CACHE"] = "off"
    env.pop("SOR_CACHE_DIR", None)
    # The program's default telemetry; the traced run switches it itself.
    env.pop("SOR_TELEMETRY", None)
    return env


def self_test(out):
    done = subprocess.run([os.path.join(out, "te_bench_selftest")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60, env=child_env())
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise RuntimeError("check self-test failed")
    return done.stdout


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("harness printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("result attempted no operation")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the planted-fault check test")
    parser.add_argument("--probe", choices=("mwu_demand", "readers"),
                        help="print a reference table (README) instead of "
                             "running the benchmark")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        out = build()
        report = self_test(out)
        if args.self_test:
            sys.stdout.write(report)
            return 0
        cmd = [os.path.join(out, "te_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.probe:
            done = subprocess.run(cmd + ["--probe", args.probe],
                                  timeout=RUN_TIMEOUT_S, env=child_env())
            return done.returncode
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
        if done.returncode != 0:
            raise RuntimeError(f"harness exited with {done.returncode}")
        result = parse_result(done.stdout)
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log(str(error))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
