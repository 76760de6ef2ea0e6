#!/usr/bin/env python3
"""Builds and runs the wall-clock RUBiS benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload browse_hot --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the benchmark and the
txcache sources under .bench_build/perfbench (Release); later runs only re-check the build.
The last line of standard output is the result object printed by the driver; spans of traced
runs go to .bench_out/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("browse_hot", "browse_socket", "bid_tight")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def commit_label():
    """The git commit when there is one, else a digest of the sources the build compiles."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout ends with the result line."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "txcache_client.h")):
        fail("no txcache sources under src/ (run from the root of a checkout)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "rubis_bench"],
                BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "rubis_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_label(), "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {done.returncode}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
