#!/usr/bin/env python3
"""Build and run the uld3d end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload datasheet --seed 1 --seconds 30 --trace 0

Configures and builds the stand-alone harness in perfbench/ (a Release build
of the model libraries from src/ plus perfbench.cpp) under .bench_build/,
then runs it for one workload in its own process.  The harness's last stdout
line is the JSON result.  Exits non-zero, printing no result, when the
sources are missing, the build fails or the run does not finish in time.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "uld3d_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("uld3d sources (src/) not found next to perfbench/", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "uld3d_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["datasheet", "search_cold", "sweep_warm"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="fixed op count (quick self-test mode)")
    parser.add_argument("--corrupt-op", type=int, default=-1,
                        help="perturb this op's result (self-test)")
    args = parser.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    if args.ops > 0:
        command += ["--ops", str(args.ops)]
    if args.corrupt_op >= 0:
        command += ["--corrupt-op", str(args.corrupt_op)]
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
