#!/usr/bin/env python3
"""Validate a urcgc-check --report document against the documented schema.

Stdlib-only, used by the CI build-test job and by hand after an explorer
sweep (see DESIGN.md "Checking & exploration" for the field-by-field
schema). Exits 0 on success, 1 with a list of violations otherwise.

Usage: check_checker_schema.py report.json
"""

import json
import sys

EXPECTED_SCHEMA = "urcgc-check-report-v1"
CASE_HEADER = "urcgc-check-case-v1"

TOP_LEVEL = {
    "schema": str,
    "base_seed": int,
    "seeds": int,
    "mutation": str,
    "backends": list,
    "violations": int,
    "failures": list,
}

BACKEND_FIELDS = {
    "backend": str,
    "executions": int,
    "violations": int,
}

FAILURE_FIELDS = {
    "backend": str,
    "seed": int,
    "schedule": int,
    "n": int,
    "messages": int,
    "faults": int,
    "clause": str,
    "message": str,
    "case": str,
}

BACKENDS = {"sim", "threads", "socket"}
MUTATIONS = {"none", "skip-request-merge", "ignore-one-dep"}
CLAUSES = {"atomicity", "ordering", "stability", "decision-sequence",
           "liveness"}


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

    if doc["schema"] != EXPECTED_SCHEMA:
        err(f"schema {doc['schema']!r} != {EXPECTED_SCHEMA!r}")
    if doc["seeds"] <= 0:
        err(f"seeds = {doc['seeds']} must be positive")
    if doc["mutation"] not in MUTATIONS:
        err(f"mutation {doc['mutation']!r} not in {sorted(MUTATIONS)}")
    if not doc["backends"]:
        err("backends is empty")

    total_violations = 0
    for i, backend in enumerate(doc["backends"]):
        where = f"backends[{i}]"
        if not isinstance(backend, dict):
            err(f"{where} is not an object")
            continue
        for field, kind in BACKEND_FIELDS.items():
            if field not in backend:
                err(f"{where} missing field {field!r}")
            elif not isinstance(backend[field], kind):
                err(f"{where}.{field} has wrong type")
        for field in backend:
            if field not in BACKEND_FIELDS:
                err(f"{where} has unknown field {field!r}")
        if errors:
            continue
        if backend["backend"] not in BACKENDS:
            err(f"{where}.backend {backend['backend']!r} not in "
                f"{sorted(BACKENDS)}")
        if backend["executions"] < 0 or backend["executions"] > doc["seeds"]:
            err(f"{where}.executions = {backend['executions']} outside "
                f"[0, seeds]")
        if backend["violations"] < 0:
            err(f"{where}.violations negative")
        if backend["violations"] > backend["executions"]:
            err(f"{where}: violations {backend['violations']} > "
                f"executions {backend['executions']}")
        total_violations += backend["violations"]

    if not errors and doc["violations"] != total_violations:
        err(f"violations {doc['violations']} != per-backend sum "
            f"{total_violations}")

    for i, failure in enumerate(doc["failures"]):
        where = f"failures[{i}]"
        if not isinstance(failure, dict):
            err(f"{where} is not an object")
            continue
        for field, kind in FAILURE_FIELDS.items():
            if field not in failure:
                err(f"{where} missing field {field!r}")
            elif not isinstance(failure[field], kind):
                err(f"{where}.{field} has wrong type")
        for field in failure:
            if field not in FAILURE_FIELDS:
                err(f"{where} has unknown field {field!r}")
        if errors:
            continue
        if failure["backend"] not in BACKENDS:
            err(f"{where}.backend {failure['backend']!r} not in "
                f"{sorted(BACKENDS)}")
        if failure["n"] < 2:
            err(f"{where}.n = {failure['n']} < 2")
        if failure["messages"] < 0:
            err(f"{where}.messages negative")
        if failure["clause"] not in CLAUSES:
            err(f"{where}.clause {failure['clause']!r} not in "
                f"{sorted(CLAUSES)}")
        if not failure["message"]:
            err(f"{where}.message is empty")
        # A recorded failure must carry a self-contained replayable case.
        case = failure["case"]
        if not case.startswith(CASE_HEADER + "\n"):
            err(f"{where}.case does not start with the {CASE_HEADER!r} "
                f"header line")
        else:
            keys = {line.split("=", 1)[0]
                    for line in case.splitlines()[1:] if "=" in line}
            for required in ("n", "messages", "seed", "schedule", "backend",
                             "mutation"):
                if required not in keys:
                    err(f"{where}.case missing {required!r} line")

    if not errors and len(doc["failures"]) > doc["violations"]:
        err(f"{len(doc['failures'])} recorded failures exceed the "
            f"{doc['violations']} counted violations")
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
    print(f"{sys.argv[1]}: schema OK ({doc['violations']} violation(s) "
          f"across {len(doc['backends'])} backend(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
