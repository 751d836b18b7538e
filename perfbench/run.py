#!/usr/bin/env python3
"""Contextual-service benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints the workload's metrics by name, unit and sample count, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.

    python3 perfbench/run.py --report [--seed <n>] [--seconds <s>]

runs every workload untraced and traced, prints every end-to-end and
per-layer metric in one table, and writes BENCHMARK.json from SPEC.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; perfbench/README.md describes the workloads.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "context",
         "why": "full facade path sensor->bus->matchlet->device, open loop: the only workload "
                "where pipelines, matchlets, knowledge replicas and overlay upkeep all work"},
        {"name": "bus_fanout",
         "why": "event bus alone, read-heavy open loop over 10^4 Zipf-hotspot subscriptions: "
                "broker match/route and the FilterIndex dominate"},
        {"name": "bus_churn",
         "why": "the same broker tier under subscribe/unsubscribe/re-attach churn: prices "
                "routing-table, covering and aggregation updates a read-side gain could cost"},
        {"name": "kb_store",
         "why": "overlay and object store alone, closed-loop gets and puts: Plaxton routing, "
                "leaf-set upkeep, promiscuous caching and healing, idle elsewhere"},
    ],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.12},
        {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.12},
        {"name": "net_bytes_per_result", "unit": "B", "better": "lower", "bound": 0.1},
        {"name": "net_packets_per_result", "unit": "count", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "sim.busy_s", "unit": "s", "better": "lower"},
        {"name": "sim.tasks_per_op", "unit": "count", "better": "lower"},
        {"name": "sim.unattributed_s", "unit": "s", "better": "lower"},
        {"name": "pubsub.match_s", "unit": "s", "better": "lower"},
        {"name": "pubsub.route_s", "unit": "s", "better": "lower"},
        {"name": "pubsub.client_s", "unit": "s", "better": "lower"},
        {"name": "event.probes_per_publish", "unit": "count", "better": "lower"},
        {"name": "event.probes_per_match", "unit": "count", "better": "lower"},
        {"name": "event.index_match_us", "unit": "us", "better": "lower"},
        {"name": "event.index_update_us", "unit": "us", "better": "lower"},
        {"name": "pubsub.transit_entries", "unit": "count", "better": "lower"},
        {"name": "pubsub.max_table_entries", "unit": "count", "better": "lower"},
        {"name": "pubsub.subs_forwarded", "unit": "count", "better": "lower"},
        {"name": "pubsub.subs_suppressed", "unit": "count", "better": "higher"},
        {"name": "pubsub.aggregate_updates", "unit": "count", "better": "lower"},
        {"name": "pubsub.aggregate_absorbed", "unit": "count", "better": "higher"},
        {"name": "wire.bytes_per_publish", "unit": "B", "better": "lower"},
        {"name": "net.batch_members_per_frame", "unit": "count", "better": "higher"},
        {"name": "overlay.route_s", "unit": "s", "better": "lower"},
        {"name": "overlay.route_hops_mean", "unit": "count", "better": "lower"},
        {"name": "overlay.ring_build_s", "unit": "s", "better": "lower"},
        {"name": "storage.store_s", "unit": "s", "better": "lower"},
        {"name": "storage.cache_hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "storage.heal_pushes", "unit": "count", "better": "lower"},
        {"name": "storage.timeouts", "unit": "count", "better": "lower"},
        {"name": "match.engine_us_per_event", "unit": "us", "better": "lower"},
        {"name": "match.candidates_per_event", "unit": "count", "better": "lower"},
        {"name": "pipeline.put_s", "unit": "s", "better": "lower"},
        {"name": "gloss.facts_s", "unit": "s", "better": "lower"},
        {"name": "gloss.deploy_s", "unit": "s", "better": "lower"},
        {"name": "gloss.subscribe_s", "unit": "s", "better": "lower"},
        {"name": "deploy.deploy_s", "unit": "s", "better": "lower"},
        {"name": "latency.wire_ms", "unit": "ms", "better": "lower"},
        {"name": "latency.match_ms", "unit": "ms", "better": "lower"},
        {"name": "latency.queue_ms", "unit": "ms", "better": "lower"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
        {"name": "failed_ratio", "unit": "ratio", "better": "lower"},
    ],
}

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds perfbench (incrementally); returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return build_dir / "perfbench"


def run_workload(binary, workload, seed, seconds, trace, scale="full"):
    """Runs one workload; returns (human-readable lines, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        fail(f"{workload} did not report {', '.join(missing)}")
    return lines[:-1], result


def final_line(result, trace):
    """The result line: only the spec's metrics, with value and unit."""
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    return json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]), "metrics": metrics})


def write_spec():
    with open(ROOT / "BENCHMARK.json", "w") as out:
        json.dump(SPEC, out, indent=2)
        out.write("\n")


def report(binary, seed, seconds):
    """Every workload, untraced and traced: one table of all metrics."""
    rows = []
    all_correct = True
    for workload in WORKLOADS:
        for trace in (False, True):
            _, result = run_workload(binary, workload, seed, seconds, trace)
            all_correct = all_correct and result["correct"]
            attempted, failed = result["attempted"], result["failed"]
            rows.append((workload, "failed_ratio (e2e)", failed / attempted if attempted else 0.0,
                         "ratio", f"attempted={attempted} failed={failed}"))
            for spec in SPEC["per_layer" if trace else "end_to_end"]:
                m = result["metrics"][spec["name"]]
                rows.append((workload, spec["name"], m["value"], m["unit"],
                             f"samples={m.get('samples', 0)}"))
    print(f"{'workload':<11} {'metric':<28} {'value':>16} {'unit':<6} samples")
    for workload, name, value, unit, samples in rows:
        print(f"{workload:<11} {name:<28} {value:>16.6f} {unit:<6} {samples}")
    write_spec()
    print(f"wrote {ROOT / 'BENCHMARK.json'}; all outputs correct: {all_correct}")
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")

    binary = build()
    if args.report:
        return report(binary, args.seed, args.seconds)
    lines, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                 args.trace == 1)
    for line in lines:
        print(line)
    print(final_line(result, args.trace == 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
