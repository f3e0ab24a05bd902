#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep_x5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark binary is built from the checkout's sources into
.bench_build/perfbench by configuring the repository's own CMake project with
perfbench/perfbench.cmake injected (CMAKE_PROJECT_INCLUDE), so it links the
libraries exactly as the repository builds them. Build output goes to stderr;
the last line of stdout is the binary's JSON result. Exits non-zero, without a
result, when the sources or the build are missing or broken.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_bin", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if result.returncode != 0:
        fail("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: the repository sources are missing" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perfbench.cmake"),
               "-DCMAKE_RUNTIME_OUTPUT_DIRECTORY=" + os.path.dirname(BINARY)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
              BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    build()
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [BINARY, "--reference", os.path.join(HERE, "reference.csv")]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", runs]
    # The daemon's Unix socket is created relative to the working directory,
    # which keeps its path short and inside the checkout.
    proc = subprocess.Popen(cmd, cwd=runs, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
