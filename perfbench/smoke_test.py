#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tenth of its simulated
durations, untraced twice and traced once, with the same seed.

    python3 perfbench/smoke_test.py

Checks that each run exits 0 with a correct result, that the result and the
printed lines carry every metric BENCHMARK.json names with its unit, and that
all three runs print identical replica digests. Exits 1 on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return lines


def check_metrics(workload, trace, lines, spec):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace {trace}: {lines[-1]}")
    for name, unit in spec.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            raise AssertionError(f"{workload}: metric {name} is {got}, want unit {unit}")
        if not any(re.fullmatch(rf"\s*{re.escape(name)} = \S+ {re.escape(unit)}", l)
                   for l in lines):
            raise AssertionError(f"{workload}: {name} not printed with {unit}")
    if set(result["metrics"]) != set(spec):
        raise AssertionError(f"{workload}: extra metrics "
                             f"{sorted(set(result['metrics']) - set(spec))}")


def digests(lines):
    return [l for l in lines if l.lstrip().startswith("digest ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {t: {m["name"]: m["unit"] for m in bench[key]}
             for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [(0, run(workload, 0)), (0, run(workload, 0)), (1, run(workload, 1))]
        for trace, lines in runs:
            check_metrics(workload, trace, lines, specs[trace])
        first = digests(runs[0][1])
        if not first or any(digests(lines) != first for _, lines in runs[1:]):
            raise AssertionError(f"{workload}: digests differ between runs")
        print(f"{workload}: ok ({len(first)} replica digests identical in 3 runs)",
              flush=True)
    print("smoke test: ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as err:
        print(f"smoke test FAILED: {err}")
        sys.exit(1)
