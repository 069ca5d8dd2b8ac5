#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the dtt
library plus the perfbench binary from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr. The binary's stdout is
passed through unchanged: its last line is the JSON result. The exit code is
the binary's, or 2 when the build fails or the binary does not finish in
time.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("stream_longtail", "serve_mixed", "table_join")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
             jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    # Relative to the root, where the binary runs.
    workdir = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"),
                              root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        proc = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 2
    finally:
        # Keep the span traces of --trace 1 runs; drop the model artifact.
        rundir = os.path.join(root, workdir)
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(rundir) if os.path.isdir(rundir) else ():
            if name.startswith("trace_"):
                os.replace(os.path.join(rundir, name),
                           os.path.join(traces, name))
        shutil.rmtree(rundir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
