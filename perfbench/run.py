#!/usr/bin/env python3
"""Build and run the pMEMCPY repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload checkpoint --seed 1 --seconds 20 --trace 0
      One run.  The last stdout line is one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics of
      BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

  python3 perfbench/run.py --all [--seed 1] [--seconds 20] [--trace 0|1]
      Every workload in turn, printed as a table of metric, value and unit.

  python3 perfbench/run.py --self-check
      Every workload at tiny sizes: each metric prints exactly once with its
      unit, nothing fails, and one injected wrong expectation is caught.

The binary is built with CMake under .bench_build/ in the repository root.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_LOG = ROOT / ".bench_build" / "perfbench-build.log"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    with open(BUILD_LOG, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = BUILD_LOG.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(cmd))


def no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ValueError(f"metric printed twice: {key}")
        seen[key] = value
    return seen


def run_binary(workload, seed, seconds, trace, *extra):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        fail(f"{workload}: bad result line: {e}")
    return lines[:-1], result


def select(result, specs):
    """The result restricted to @specs, each present with its unit."""
    metrics = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise ValueError(f"metric missing: {spec['name']}")
        if got["unit"] != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {got['unit']}, "
                             f"expected {spec['unit']}")
        metrics[spec["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def metric_specs(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def self_check(bench):
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            _, result = run_binary(wl, 1, 0.5, trace, "--tiny")
            try:
                select(result, metric_specs(bench, trace))
            except ValueError as e:
                problems.append(f"{wl} trace={trace}: {e}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{wl} trace={trace}: correct="
                                f"{result['correct']} failed={result['failed']}")
        _, result = run_binary(wl, 1, 0.5, 0, "--tiny", "--inject-fault")
        ratio = result["metrics"]["op_fail_ratio"]["value"]
        if result["failed"] == 0 or ratio <= 0 or result["correct"]:
            problems.append(f"{wl}: injected wrong expectation not caught")
        print(f"{wl}: checked")
    for p in problems:
        print(f"FAIL {p}")
    print("self-check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def run_all(bench, seed, seconds, trace):
    """Every metric the binary reports, for every workload."""
    status = 0
    for wl in (w["name"] for w in bench["workloads"]):
        info, result = run_binary(wl, seed, seconds, trace)
        print(f"== {wl} (correct={str(result['correct']).lower()}, "
              f"attempted={result['attempted']}, failed={result['failed']})")
        for line in info:
            print(f"   {line}")
        try:
            select(result, metric_specs(bench, trace))
        except ValueError as e:
            print(f"   {e}")
            status = 1
        for name, got in result["metrics"].items():
            print(f"   {name:<36} {got['value']:>16.6g} {got['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    build()
    if args.self_check:
        sys.exit(self_check(bench))
    if args.all:
        sys.exit(run_all(bench, args.seed, args.seconds, args.trace))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    info, result = run_binary(args.workload, args.seed, args.seconds,
                              args.trace)
    try:
        out = select(result, metric_specs(bench, args.trace))
    except ValueError as e:
        fail(str(e))
    for line in info:
        print(line)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
