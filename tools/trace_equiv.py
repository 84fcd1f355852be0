#!/usr/bin/env python3
"""Check that two revisions run the simulator identically.

    python3 tools/trace_equiv.py --against=<rev> [--seeds=20] [--jobs=4]
    python3 tools/trace_equiv.py --against-bin=<urcgc-sim> [...]

Runs `urcgc-sim --trace` for every configuration of a fixed corpus with
this tree's binary and with the other revision's, and compares the JSONL
traces and the stdout of each pair byte for byte. The sim backend is
deterministic per seed, so a change that claims to leave the protocol's
behaviour alone (a refactor, a speed-up) must produce identical files.

The corpus is seeds 1..S x pipeline depth k in {1, 4} x control encoding
in {full, delta} x causality in {intermediate, general}, each with 1 %
send+receive omission, so recovery, anchor misses and snapshot fallbacks
are exercised. S is 20 by default.

--against=<rev> checks the revision out into a temporary git worktree,
builds its urcgc-sim there (CMake, RelWithDebInfo) and removes the
worktree afterwards. --against-bin uses an already built binary instead.
This tree's binary is --bin (default build/tools/urcgc-sim; it is built
with `cmake --build build --target tool_urcgc_sim` when missing).

Exits 0 when every pair is identical, 1 when any pair differs (the first
five are listed), 2 on a usage or build error. Standard library only.
"""

import argparse
import concurrent.futures
import itertools
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIM_TARGET = "tool_urcgc_sim"
SIM_PATH = os.path.join("tools", "urcgc-sim")


def corpus(seeds):
    for seed, k, encoding, causality in itertools.product(
            range(1, seeds + 1), (1, 4), ("full", "delta"),
            ("intermediate", "general")):
        yield [f"--seed={seed}", f"--pipeline-k={k}",
               f"--control-encoding={encoding}", f"--causality={causality}",
               "--omission=0.01"]


def build(source_dir, build_dir, jobs):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", SIM_TARGET,
                    "-j", str(jobs)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, SIM_PATH)


def run_one(binary, flags, workdir):
    """Runs one configuration in `workdir`; the trace goes to a relative
    path, so the 'wrote ... to <file>' line is the same on both sides."""
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run([binary, *flags, "--trace=trace.jsonl"],
                          cwd=workdir, capture_output=True, timeout=600)
    trace_path = os.path.join(workdir, "trace.jsonl")
    trace = None  # a run that aborted may have written none
    if os.path.exists(trace_path):
        with open(trace_path, "rb") as f:
            trace = f.read()
    return proc.returncode, proc.stdout, trace


def compare(ours, theirs, flags, scratch, index):
    a = run_one(ours, flags, os.path.join(scratch, str(index), "ours"))
    b = run_one(theirs, flags, os.path.join(scratch, str(index), "theirs"))
    shutil.rmtree(os.path.join(scratch, str(index)), ignore_errors=True)
    problems = []
    if a[0] != b[0]:
        problems.append(f"exit status {a[0]} vs {b[0]}")
    if a[1] != b[1]:
        problems.append("stdout differs")
    if a[2] != b[2]:
        size = lambda t: "none" if t is None else f"{len(t)} bytes"
        problems.append(f"trace differs ({size(a[2])} vs {size(b[2])})")
    return flags, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    other = parser.add_mutually_exclusive_group(required=True)
    other.add_argument("--against", metavar="REV",
                       help="git revision to build and compare with")
    other.add_argument("--against-bin", metavar="PATH",
                       help="prebuilt urcgc-sim of the other revision")
    parser.add_argument("--bin", metavar="PATH",
                        default=os.path.join(ROOT, "build", SIM_PATH),
                        help="this tree's urcgc-sim")
    parser.add_argument("--seeds", type=int, default=20,
                        help="seeds 1..S per configuration (default 20)")
    parser.add_argument("--jobs", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)))
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    scratch = tempfile.mkdtemp(prefix="trace_equiv_")
    worktree = None
    try:
        ours = args.bin
        if not os.path.isfile(ours):
            ours = build(ROOT, os.path.dirname(os.path.dirname(ours)),
                         args.jobs)
        if args.against is not None:
            worktree = os.path.join(scratch, "against")
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                            worktree, args.against],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
            theirs = build(worktree, os.path.join(worktree, "build"),
                           args.jobs)
        else:
            theirs = args.against_bin
        if not os.path.isfile(theirs):
            print(f"no urcgc-sim at {theirs}", file=sys.stderr)
            return 2

        runs = os.path.join(scratch, "runs")
        configs = list(corpus(args.seeds))
        failures = []
        with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
            futures = [pool.submit(compare, ours, theirs, flags, runs, i)
                       for i, flags in enumerate(configs)]
            for future in futures:
                flags, problems = future.result()
                if problems:
                    failures.append((flags, problems))
        for flags, problems in failures[:5]:
            print("DIFF urcgc-sim " + " ".join(flags) + ": " +
                  "; ".join(problems))
        verdict = "identical" if not failures else \
            f"{len(failures)} differ"
        print(f"trace_equiv: {len(configs)} configurations, {verdict}")
        return 0 if not failures else 1
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        print(f"trace_equiv: {err}", file=sys.stderr)
        return 2
    finally:
        if worktree is not None:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", worktree],
                           stdout=sys.stderr, stderr=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
