#!/usr/bin/env python3
"""Validate a bench JSON document against its documented schema.

Dispatches on the document's "bench" field: BENCH_throughput.json
(bench_throughput), BENCH_recovery.json (bench_recovery) and
BENCH_scale.json (bench_scale) are all supported. Stdlib-only, used by
the CI build-test job and by hand after regenerating a
baseline (see PERFORMANCE.md for the field-by-field schemas). Exits 0 on
success, 1 with a list of violations otherwise.

Usage: check_bench_schema.py BENCH_file.json
"""

import json
import sys

EXPECTED_SCHEMA_VERSION = 1

TOP_LEVEL = {
    "schema_version": int,
    "bench": str,
    "generated_at": str,
    "quick": bool,
    "messages_per_run": int,
    "seed": int,
    "runs": list,
}

THROUGHPUT_RUN_FIELDS = {
    "protocol": str,
    "backend": str,
    "payload_mode": str,
    "pipeline_k": int,
    "mailboxes": str,
    "round_us": int,
    "n": int,
    "payload_bytes": int,
    "seed": int,
    "messages_generated": int,
    "messages_delivered": int,
    "wall_seconds": (int, float),
    "msgs_per_sec": (int, float),
    "deliveries_per_sec": (int, float),
    "delivery_delay_rtd_p50": (int, float),
    "delivery_delay_rtd_p99": (int, float),
    "buffer_allocations": int,
    "buffer_bytes_allocated": int,
    "buffer_bytes_copied": int,
    "bytes_copied_per_delivered_message": (int, float),
    "allocations_per_message": (int, float),
    "ok": bool,
}

RECOVERY_RUN_FIELDS = {
    "backend": str,
    "n": int,
    "omission": (int, float),
    "max_recover_batch": int,
    "seed": int,
    "messages_generated": int,
    "recoveries_issued": int,
    "recovery_batches": int,
    "recovered_messages": int,
    "recovery_continuations": int,
    "recovery_budget_exhausted": int,
    "recovery_cache_hits": int,
    "recover_rsp_bytes": int,
    "roundtrips_per_recovered": (int, float),
    "bytes_per_recovered": (int, float),
    "recovery_latency_rtd_p50": (int, float),
    "recovery_latency_rtd_p99": (int, float),
    "joins": int,
    "joins_admitted": int,
    "join_catchup_batches": int,
    "join_catchup_msgs": int,
    "join_catchup_latency_rtd_p50": (int, float),
    "join_catchup_latency_rtd_p99": (int, float),
    "waiting_peak": int,
    "inbox_peak": int,
    "history_peak": int,
    "wall_seconds": (int, float),
    "ok": bool,
}

SCALE_RUN_FIELDS = {
    "backend": str,
    "encoding": str,
    "n": int,
    "senders": int,
    "snapshot_every": int,
    "seed": int,
    "messages_generated": int,
    "messages_delivered": int,
    "request_bytes": int,
    "decision_bytes": int,
    "control_bytes_per_delivery": (int, float),
    "delta_fallbacks": int,
    "delta_anchor_miss": int,
    "wall_seconds": (int, float),
    "ok": bool,
}

PROTOCOLS = {"urcgc", "cbcast", "psync"}
BACKENDS = {"sim", "threads", "socket"}
PAYLOAD_MODES = {"shared"}
# "round" = round-parity mailboxes; "spsc" = the lock-free rings they
# replaced, still valid for rows measured on them.
MAILBOXES = {"round", "spsc", "none"}
ENCODINGS = {"full", "delta"}

# bench_scale's acceptance gate: from this group size up, the delta
# encoding must cut control bytes per delivery by at least this factor.
SCALE_RATIO_GATE_N = 1000
SCALE_REQUIRED_RATIO = 5.0


def check_common_run(run, where, run_fields, err):
    """Field presence/type checks shared by every bench flavour."""
    bad = False
    for field, kind in run_fields.items():
        if field not in run:
            err(f"{where} missing field {field!r}")
            bad = True
        elif not isinstance(run[field], kind) or isinstance(
                run[field], bool) != (kind is bool):
            err(f"{where}.{field} has wrong type")
            bad = True
    for field in run:
        if field not in run_fields:
            err(f"{where} has unknown field {field!r}")
            bad = True
    return not bad


def check_throughput_run(run, where, err):
    if run["protocol"] not in PROTOCOLS:
        err(f"{where}.protocol {run['protocol']!r} not in "
            f"{sorted(PROTOCOLS)}")
    if run["payload_mode"] not in PAYLOAD_MODES:
        err(f"{where}.payload_mode {run['payload_mode']!r} not in "
            f"{sorted(PAYLOAD_MODES)}")
    if run["pipeline_k"] < 1:
        err(f"{where}.pipeline_k must be >= 1")
    if run["pipeline_k"] > 1 and run["protocol"] != "urcgc":
        err(f"{where}: pipeline_k > 1 on baseline {run['protocol']!r}")
    if run["mailboxes"] not in MAILBOXES:
        err(f"{where}.mailboxes {run['mailboxes']!r} not in "
            f"{sorted(MAILBOXES)}")
    if run["backend"] == "sim" and run["mailboxes"] != "none":
        err(f"{where}: sim backend has no mailboxes "
            f"(got {run['mailboxes']!r})")
    if run["backend"] in ("threads", "socket") and run["mailboxes"] == "none":
        # The socket runtime layers UDP transport over the threaded
        # execution model, so it too runs on real mailboxes.
        err(f"{where}: {run['backend']} backend must state its mailbox kind")
    if run["round_us"] < 0:
        err(f"{where}.round_us must be >= 0 (0 = free-running)")
    if run["backend"] == "sim" and run["round_us"] != 0:
        err(f"{where}: sim runs in virtual time, round_us must be 0")
    if run["payload_bytes"] <= 0:
        err(f"{where}.payload_bytes must be positive")
    if run["messages_delivered"] < run["messages_generated"]:
        # Every generated message is delivered at least at its origin.
        err(f"{where}: delivered {run['messages_delivered']} < "
            f"generated {run['messages_generated']}")
    if (run["payload_mode"] == "shared" and run["buffer_bytes_copied"]
            and run["backend"] != "socket"):
        # Socket runs legitimately copy once per received datagram (kernel
        # buffer -> SharedBuffer); the in-memory subnets must stay zero-copy.
        err(f"{where}: shared-mode run copied "
            f"{run['buffer_bytes_copied']} bytes (zero-copy regression)")


def check_recovery_run(run, where, err):
    if not 0.0 <= run["omission"] <= 1.0:
        err(f"{where}.omission {run['omission']} outside [0, 1]")
    if run["max_recover_batch"] < 1:
        err(f"{where}.max_recover_batch must be >= 1")
    if run["recovered_messages"] > 0 and run["recoveries_issued"] == 0:
        err(f"{where}: recovered messages without any recovery request")
    if run["recovery_continuations"] > run["recoveries_issued"]:
        err(f"{where}: continuations exceed recoveries issued")
    if run["recovered_messages"] and not run["recover_rsp_bytes"]:
        err(f"{where}: recovered messages but zero RecoverRsp bytes")
    if run["joins"] < 0 or run["joins_admitted"] > run["joins"]:
        err(f"{where}: joins_admitted {run['joins_admitted']} outside "
            f"[0, joins]")
    if run["joins"] == 0 and (run["join_catchup_batches"]
                              or run["join_catchup_msgs"]):
        err(f"{where}: join catch-up counters without a configured joiner")
    if run["joins_admitted"] and not run["join_catchup_batches"]:
        err(f"{where}: a joiner was admitted without any catch-up batch")


def check_scale_run(run, where, err):
    if run["backend"] != "sim":
        err(f"{where}: bench_scale runs on the sim (got {run['backend']!r})")
    if run["encoding"] not in ENCODINGS:
        err(f"{where}.encoding {run['encoding']!r} not in "
            f"{sorted(ENCODINGS)}")
    if not 1 <= run["senders"] <= run["n"]:
        err(f"{where}.senders {run['senders']} outside [1, n]")
    if run["snapshot_every"] < 1:
        err(f"{where}.snapshot_every must be >= 1")
    if run["messages_delivered"] < run["messages_generated"]:
        err(f"{where}: delivered {run['messages_delivered']} < "
            f"generated {run['messages_generated']}")
    if run["request_bytes"] == 0 or run["decision_bytes"] == 0:
        err(f"{where}: a run that delivered messages must have moved "
            f"control traffic in both classes")
    if run["encoding"] == "full" and (run["delta_fallbacks"]
                                      or run["delta_anchor_miss"]):
        err(f"{where}: full-encoding run reports delta counters")


def check_scale_ratios(runs, err):
    """Cross-run gate: delta must beat full at every n, >= 5x at n >= 1000."""
    by_n = {}
    for i, run in enumerate(runs):
        if not isinstance(run, dict) or run.get("encoding") not in ENCODINGS:
            continue
        if by_n.setdefault(run["n"], {}).setdefault(
                run["encoding"], run) is not run:
            err(f"runs[{i}]: duplicate (n, encoding) point")
    for n, points in sorted(by_n.items()):
        if len(points) != 2:
            continue  # one-encoding documents (e.g. a quick smoke) are fine
        full = points["full"]["control_bytes_per_delivery"]
        delta = points["delta"]["control_bytes_per_delivery"]
        if delta <= 0:
            err(f"n={n}: delta bytes/delivery must be positive")
            continue
        if delta >= full:
            err(f"n={n}: delta {delta} >= full {full} bytes/delivery")
        elif n >= SCALE_RATIO_GATE_N and full / delta < SCALE_REQUIRED_RATIO:
            err(f"n={n}: reduction {full / delta:.2f}x below the required "
                f"{SCALE_REQUIRED_RATIO}x")


def check(doc):
    errors = []

    def err(msg):
        errors.append(msg)

    for field, kind in TOP_LEVEL.items():
        if field not in doc:
            err(f"missing top-level field {field!r}")
        elif not isinstance(doc[field], kind):
            err(f"top-level field {field!r} is not {kind.__name__}")
    for field in doc:
        if field not in TOP_LEVEL:
            err(f"unknown top-level field {field!r}")
    if errors:
        return errors

    if doc["schema_version"] != EXPECTED_SCHEMA_VERSION:
        err(f"schema_version {doc['schema_version']} != "
            f"{EXPECTED_SCHEMA_VERSION}")
    flavours = {
        "bench_throughput": (THROUGHPUT_RUN_FIELDS, check_throughput_run),
        "bench_recovery": (RECOVERY_RUN_FIELDS, check_recovery_run),
        "bench_scale": (SCALE_RUN_FIELDS, check_scale_run),
    }
    if doc["bench"] not in flavours:
        err(f"bench is {doc['bench']!r}, expected one of "
            f"{sorted(flavours)}")
        return errors
    run_fields, check_specific = flavours[doc["bench"]]
    if not doc["runs"]:
        err("runs is empty")

    for i, run in enumerate(doc["runs"]):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            err(f"{where} is not an object")
            continue
        if not check_common_run(run, where, run_fields, err):
            continue
        if run["backend"] not in BACKENDS:
            err(f"{where}.backend {run['backend']!r} not in "
                f"{sorted(BACKENDS)}")
        if run["n"] < 2:
            err(f"{where}.n = {run['n']} < 2")
        if run["wall_seconds"] < 0:
            err(f"{where}.wall_seconds negative")
        if not run["ok"]:
            err(f"{where}: run reported validation failure (ok=false)")
        check_specific(run, where, err)
    if doc["bench"] == "bench_scale":
        check_scale_ratios(doc["runs"], err)
    return errors


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot parse {sys.argv[1]}: {e}", file=sys.stderr)
        return 1
    errors = check(doc)
    if errors:
        for e in errors:
            print(f"SCHEMA VIOLATION: {e}", file=sys.stderr)
        return 1
    print(f"{sys.argv[1]}: schema OK ({len(doc['runs'])} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
