"""Record reference.json: the TV values and MC acceptance of every checked
operation, on the unjittered inputs of each workload.

Usage (from the repository root): python3 perfbench/record_reference.py

Re-record only when a change is meant to move these values, and state the
move and its tolerance in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    scratch = os.path.join(run.OUT_ROOT, "work", "reference")
    os.makedirs(scratch, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            inputs = workloads.plan(workload, None)
            _, ops = run._repetition(inputs, run._env(), scratch, os.path.join(scratch, workload), False)
            wrong = [op for op in ops if op["status"] == "wrong"]
            if wrong:
                print(f"{workload}: {len(wrong)} wrong operations, first: {wrong[0]}", file=sys.stderr)
                return 1
            reference.update({op["id"]: op["observed"] for op in ops if op["observed"]})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} reference entries to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
