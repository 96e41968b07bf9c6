#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Configures and builds ../src plus the load generator in Release under
.bench_build/perfbench (incremental after the first run), then runs the
load generator. Build output goes to standard error; standard output is
the load generator's, whose last line is the result object. Reports and
span files land in .bench_build/perfbench/out. See perfbench/METHOD.md.
"""

import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout, stdout=None):
    """Run `cmd` to completion and return its exit code. SIGTERM / SIGINT
    are passed on to it, and on timeout it is killed; either way it has
    ended before this returns."""
    proc = subprocess.Popen(cmd, stdout=stdout)
    previous = {sig: signal.signal(sig, lambda s, _f: proc.send_signal(s))
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {' '.join(cmd)} exceeded {timeout} s")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; exit on failure."""
    code = run_child(cmd, timeout, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build step failed ({code}): {' '.join(cmd)}")


def build():
    run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    # Work directories of runs that were killed before cleaning up.
    for stale in glob.glob(os.path.join(OUT_DIR, "work-*")):
        shutil.rmtree(stale, ignore_errors=True)
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", args.trace,
               "--out-dir", OUT_DIR, "--commit", commit()]
    sys.exit(run_child(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
