#!/usr/bin/env python3
"""Build and run the urcgc benchmark.

    python3 urcgc_bench/run.py --workload steady|lossy|wide|loopback \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The first call builds the benchmark
package (urcgc_bench/CMakeLists.txt, which compiles the urcgc libraries
from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls reuse the build. Build output goes to stderr. The benchmark
binary's stdout is passed through: host and run description lines, then
one JSON result object as the last line. Exits non-zero when the sources
are missing, the build fails, or the run is not correct.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady", "lossy", "wide", "loopback")


def source_id():
    """Identifies the code under test: the git commit when there is one,
    otherwise a digest of src/ (the checkout may not be a repository)."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "urcgc_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "urcgc_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny episodes, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("urcgc sources not found next to the benchmark "
              f"(expected {os.path.join(ROOT, 'src')})", file=sys.stderr)
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--source", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
