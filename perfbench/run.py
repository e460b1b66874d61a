#!/usr/bin/env python3
"""Repository benchmark: fault-campaign workloads on the availsim library.

    python3 perfbench/run.py --workload coop_campaign --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call builds perfbench/ (the library
from src/ plus the availbench driver) into .bench_build/. Each workload is
a fixed fault campaign (perfbench/README.md says why each exists).

--trace 0 repeats the untraced campaign, each repetition in a fresh process.
It always makes two repetitions, and starts another only while that is
predicted to end within --seconds. Host times are contention-free (the
driver scales each unit of work by a probe of the host's speed; README.md
gives the method), taken per unit as the median over the repetitions.

--trace 1 runs the campaign once untraced and once with the tracer and the
auditor attached, times isolated layer kernels, and reports the per-layer
metrics.

Every metric is printed with its unit; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
is 1 when a simulated-output check fails and 2 on a usage or build error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "availbench")
WORKLOADS = ("coop_campaign", "fme_faults", "wide_cluster")
# Testbed reads the first two in its constructor (they would attach the
# auditor or a trace exporter to an untraced run); the campaign runner
# reads the third.
ISOLATED_ENV = ("AVAILSIM_AUDIT", "AVAILSIM_TRACE_DIR", "AVAILSIM_JOBS")
MIN_REPS = 2
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "availbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            return False
    return os.path.exists(BINARY)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    return env, [k for k in ISOLATED_ENV if k in os.environ]


def run_driver(mode, args, env, scale=None):
    cmd = [BINARY, mode, "--workload", args.workload, "--seed", str(args.seed)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"availbench {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(replica):
    return (replica["events"], replica["packets"], replica["availability"])


def replica_failures(replica):
    out = list(replica["failures"])
    a = replica["availability"]
    if a is None or not a > 0:
        out.append(f"availability {a}")
    return out


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def campaign_seconds(reps):
    """(set-up, whole) seconds of the campaign: per unit of work, the median
    over the repetitions of its contention-free seconds, summed. Set-up is
    construction ('c'), start() and warm-up ('w')."""
    kinds = reps[0]["unit_kinds"]
    if any(r["unit_kinds"] != kinds for r in reps):
        raise ValueError("repetitions timed different units")
    unit = [statistics.median(times)
            for times in zip(*(r["unit_seconds"] for r in reps))]
    setup = sum(t for t, kind in zip(unit, kinds) if kind in "cw")
    return setup, sum(unit)


def measure_untraced(args, env):
    """Repetitions of the untraced campaign; returns (metrics, first
    repetition's output, replicas attempted, replicas failed, problems)."""
    reps, problems = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        reps.append(run_driver("campaign", args, env, args.scale))
        rep_s = time.monotonic() - t
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + rep_s > args.seconds:
            break

    first = reps[0]
    attempted = failed = 0
    for rep in reps:
        for i, replica in enumerate(rep["replicas"]):
            attempted += 1
            why = replica_failures(replica)
            if digest(replica) != digest(first["replicas"][i]):
                why.append("digest differs between repetitions")
            if why:
                failed += 1
                problems.append(f"replica seed {replica['seed']}: {'; '.join(why)}")

    setup_s, wall_s = campaign_seconds(reps)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "events_per_s": first["events"] / wall_s,
        "sim_speed": first["sim_seconds"] / wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "availability": statistics.fmean(
            x["availability"] or 0.0 for x in first["replicas"]),
    }
    for i, rep in enumerate(reps):
        log(f"  repetition {i + 1}: raw wall {rep['raw_wall_s']:.3f} s, "
            f"median probe {rep['median_probe_us']:.1f} us, "
            f"rss {rep['peak_rss_mb']:.1f} MB")
    return metrics, first, attempted, failed, problems


def measure_traced(args, env):
    """One untraced plus one traced campaign; returns what
    measure_untraced does, with the per-layer metrics."""
    out = run_driver("traced", args, env, args.scale)
    attempted = failed = 0
    problems = []
    for plain, traced in zip(out["replicas"], out["traced_replicas"]):
        attempted += 1
        why = replica_failures(plain) + [
            "traced: " + w for w in replica_failures(traced)]
        if digest(plain) != digest(traced):
            why.append(f"traced digest {digest(traced)} != untraced {digest(plain)}")
        if why:
            failed += 1
            problems.append(f"replica seed {plain['seed']}: {'; '.join(why)}")
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    metrics["failed_ratio"] = failed / attempted
    log(f"  trace records by category: {json.dumps(out['records_by_category'])}")
    return metrics, out, attempted, failed, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Multiplies every simulated duration; the self-test runs at 0.1.
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        e2e_units, layer_units = load_benchmark_spec()
    except (OSError, ValueError, KeyError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 2
    t = time.monotonic()
    if not build():
        log("build failed")
        return 2
    log(f"build: {time.monotonic() - t:.1f} s")

    env, cleared = child_env()
    if cleared:
        log(f"cleared inherited {', '.join(cleared)} for the measured runs")

    try:
        if args.trace:
            metrics, out, attempted, failed, problems = measure_traced(args, env)
            units = layer_units
        else:
            metrics, out, attempted, failed, problems = measure_untraced(args, env)
            units = e2e_units
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        log(f"driver failed: {err}")
        return 2

    missing = sorted(set(units) - set(metrics))
    problems += [f"metric {name} not reported" for name in missing]
    correct = not problems

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"nproc {os.cpu_count()}, build {out['build_type']}, "
          f"compiler {out['compiler']}, python {platform.python_version()}, "
          f"cleared env [{', '.join(cleared)}]")
    for replica in out["replicas"]:
        print(f"  digest seed {replica['seed']} ({replica['fault']}): "
              f"events {replica['events']}, packets {replica['packets']}, "
              f"availability {replica['availability']!r}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  replicas attempted {attempted}, failed {failed}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
