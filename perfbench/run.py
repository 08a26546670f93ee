#!/usr/bin/env python3
"""Builds the libfjs benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload stream|sweep|certify|mine \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root. fjs_perfbench is configured and built with
CMake under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs only re-check the build. Its stdout is passed through: the last
line is the JSON result. With --trace 1 a Chrome trace is written to
<build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream", "sweep", "certify", "mine")
# Whole-invocation time limits: a run that starts from an empty build
# directory also compiles the library.
RUN_TIMEOUT_S = 170
FIRST_RUN_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        code = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail(f"command failed ({code}): {' '.join(cmd)}")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "portfolio.h")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log_path)
    jobs = str(min(4, multiprocessing.cpu_count()))
    run_logged(["cmake", "--build", out, "-j", jobs], log_path)
    binary = os.path.join(out, "fjs_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    out = build_dir()
    first_build = not os.path.isfile(os.path.join(out, "fjs_perfbench"))
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--git-sha", git_sha()]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    limit = FIRST_RUN_TIMEOUT_S if first_build else RUN_TIMEOUT_S
    remaining = limit - (time.monotonic() - start)
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {remaining:.0f} s")
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
