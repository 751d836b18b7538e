#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke_test.py

Builds perfbench, runs every workload untraced and traced at --scale tiny
for one second, and checks that each run reports every metric of
BENCHMARK.json, that every end-to-end metric is positive, and that the
oracles and the determinism checks pass.  Also checks that the committed
BENCHMARK.json is the one run.py writes.  Exits non-zero on any failure.
"""

import json
import math
import sys

import run


def main():
    problems = []
    with open(run.ROOT / "BENCHMARK.json") as f:
        if json.load(f) != run.SPEC:
            problems.append("BENCHMARK.json differs from run.SPEC (rerun run.py --report)")
    binary = run.build()
    for workload in run.WORKLOADS:
        for trace in (False, True):
            _, result = run.run_workload(binary, workload, seed=1, seconds=1, trace=trace,
                                         scale="tiny")
            label = f"{workload} trace={int(trace)}"
            before = len(problems)
            line = json.loads(run.final_line(result, trace))
            if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
                problems.append(f"{label}: correct={line['correct']} "
                                f"attempted={line['attempted']} failed={line['failed']}")
            for name, m in line["metrics"].items():
                if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0):
                    problems.append(f"{label}: {name} = {m['value']}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
