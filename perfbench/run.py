#!/usr/bin/env python3
"""Builds the FD-RMS benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-indep-d6 --seed 1 --seconds 10 --trace 0

The build (CMake, Release) goes to .bench_build/perfbench under the checkout
and is reused by later runs; run-time files go to .bench_run/ and are removed
afterwards. Build output is sent to stderr so that the benchmark's last line
of stdout stays its JSON result. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")


def source_id():
    """Commit when the checkout is a git repository, plus a digest of the
    sources the benchmark builds, so runs of different code never look alike."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "commit:%s,src:%s" % (commit, digest.hexdigest()[:16])


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    workdir = os.path.join(RUN_DIR, str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--source-id", source_id()]
    try:
        sys.stdout.flush()
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
