#!/usr/bin/env python3
"""Build and run the xdb-ft end-to-end benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload advise_mix --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload advise_mix --seed 1 --seconds 10 --trace 1
  python3 perfbench/run.py --test

The first call configures and builds the library and the driver under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. --trace 1 also writes the spans as
Chrome-trace JSON to trace_<workload>.json in the build directory.
--test builds and runs the benchmark's own tests.
"""
import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    """Configure (once) and build `targets`; returns False on failure."""
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def driver_path():
    return os.path.join(build_dir(), "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        test = os.path.join(BENCH_DIR, "tests", "test_perfbench.py")
        return subprocess.run([sys.executable, test]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench_driver"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [driver_path(), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace_%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
