#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark) in Release
mode under $CARGO_TARGET_DIR (default .bench_build); later calls only
check the build is current. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit code is the benchmark's: 0
when every correctness check passed, non-zero otherwise.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sim-fig6", "sim-at-scale", "runtime-spawn", "serve-poisson")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def run_checked(cmd, timeout, **kwargs):
    """Run a child to completion; on timeout or SIGTERM/SIGINT kill it and
    wait for it, so no child outlives this script."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
            return 124


def build(root, build_dir, target):
    if not (root / "src" / "sim" / "engine.hpp").is_file():
        print(f"run.py: library sources not found under {root / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        rc = run_checked(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"],
                         BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_checked(["cmake", "--build", str(build_dir), "--target", target, "-j", jobs],
                     BUILD_TIMEOUT_S, stdout=sys.stderr)
    return rc == 0


def main():
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host time to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the timing layers' transparency test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")
    if args.seconds is None:
        args.seconds = float(json.loads((root / "BENCHMARK.json").read_text())["run_seconds"])
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir = build_dir / "perfbench"

    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(root, build_dir, target):
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if args.selftest:
        return run_checked([str(build_dir / target)], RUN_TIMEOUT_S)

    cmd = [str(build_dir / target), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}-{args.seed}.json")]
    return run_checked(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
