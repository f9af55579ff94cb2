#!/usr/bin/env python3
"""Quick self-check of the benchmark on tiny inputs (about 15 s).

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json once untraced and once traced on
tiny inputs, one pass each, so every command and check runs. It fails
unless every run is correct with no failed operation, the metric names
and units are exactly those BENCHMARK.json lists, and every end-to-end
metric is positive.
"""
from __future__ import annotations

import json
import math
import sys

import run


def _problems(spec: dict, name: str, trace: bool, result: dict) -> list[str]:
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"correct={result['correct']} attempted={result['attempted']} "
                   f"failed={result['failed']}")
    if set(got) != set(want):
        out.append(f"metrics missing {sorted(set(want) - set(got))}, "
                   f"unexpected {sorted(set(got) - set(want))}")
    for key, m in got.items():
        if key in want and m["unit"] != want[key]:
            out.append(f"{key}: unit {m['unit']}, expected {want[key]}")
        if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0):
            out.append(f"{key}: value {m['value']}")
    return [f"{name} trace={int(trace)}: {p}" for p in out]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            result = run.run(workload["name"], seed=0, seconds=1e-3, trace=trace,
                             tiny=True)
            problems += _problems(spec, workload["name"], trace, result)
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
