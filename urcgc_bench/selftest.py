#!/usr/bin/env python3
"""Self-test of the urcgc benchmark, on tiny runs of every workload.

    python3 urcgc_bench/selftest.py

Run from the root of a checkout; builds the benchmark first if needed.
Checks, in smoke mode (one short episode per run):
  * every workload, untraced and traced, exits 0 with a correct result
    that names exactly the metrics BENCHMARK.json lists, with their units;
  * on the sim workloads, two runs at one seed report identical count
    metrics;
  * without the urcgc sources next to it, the benchmark exits non-zero
    and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
EXACT_ON_SIM = ("control_bytes_per_delivery", "heap_allocs_per_delivery",
                "delay_rtd_p50", "delay_rtd_p99", "peak_heap_mb")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    out = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result, out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # steady runs by name although BENCHMARK.json does not list it.
    workloads = ["steady"] + [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            code, result, err = run(workload, 1, trace)
            what = f"{workload} trace={trace}"
            check(code == 0 and result is not None,
                  f"{what}: exits 0 with a JSON result"
                  + ("" if code == 0 else "\n" + err[-2000:]))
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result has exactly the four keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{what}: correct, nothing failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  f"{what}: metric names and units match BENCHMARK.json")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if v["value"] == 0]
                check(not zero, f"{what}: no end-to-end metric is 0 {zero}")

    # The sim workloads; loopback runs real threads, so its counts vary.
    for workload in ("steady", "lossy", "wide"):
        runs = [run(workload, 7, 0)[1] for _ in range(2)]
        if None in runs:
            check(False, f"{workload}: determinism runs produced results")
            continue
        a, b = (r["metrics"] for r in runs)
        same = all(a[k]["value"] == b[k]["value"] for k in EXACT_ON_SIM)
        check(same, f"{workload}: count metrics repeat exactly at one seed")

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        name = os.path.basename(HERE)
        shutil.copytree(HERE, os.path.join(bare, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(workloads[0], 1, 0, cwd=bare,
                              script=os.path.join(bare, name, "run.py"))
        check(code != 0 and result is None,
              "without the sources: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
