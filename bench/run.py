"""Benchmark command: runs one workload and prints its metrics as JSON.

    python3 bench/run.py --workload estimate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src`.
Each round of the workload runs in a fresh interpreter (bench/workload.py).

--trace 0 starts rounds until their timed phases add up to --seconds and
prints the end-to-end metrics: setup_s, ops_per_s, cpu_ms_per_op and
peak_rss_mb.  --trace 1 runs round 0 untraced and again traced (campaign:
untraced at nproc workers and at 1 worker, traced at 1 worker, since spans
taken in pool workers do not reach the parent) and prints the per-layer
metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("estimate", "campaign", "tables")
REQUIRED = (
    os.path.join(ROOT, "src", "zchurst", "__init__.py"),
    os.path.join(ROOT, "tests", "benchmarks.py"),
)

# setup_s is the median over the rounds and enough set-up-only starts to
# make at least this many samples.
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 170

# Per-layer metrics that compare rounds, set on the campaign or every workload.
PER_LAYER_EXTRA = (
    "harness.workers_speedup",
    "harness.ops_per_s_1worker",
    "harness.ops_per_s_nproc",
    "trace.overhead_ratio",
    "trace.untraced_ops_per_s",
    "trace.traced_ops_per_s",
)


class RoundFailed(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spawn(workload, seed, mode, round_index=0, workers=1) -> dict:
    """Run one round in a fresh interpreter and return its result.

    The estimate round's series are written here, before the round starts,
    so that drawing them adds nothing to its memory or time.
    """
    if workload == "estimate" and mode != "setup":
        directory = os.path.join(OUT_DIR, f"series-{seed}-{round_index}-{os.getpid()}")
        inputs.write_estimate_inputs(directory, seed, round_index)
        try:
            return _spawn(workload, seed, mode, round_index, workers, ["--inputs", directory])
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return _spawn(workload, seed, mode, round_index, workers, [])


def _spawn(workload, seed, mode, round_index, workers, extra) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--round", str(round_index),
        "--mode", mode,
        "--workers", str(workers),
        *extra,
    ]
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round {round_index} ({mode}) exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["mode"] = mode
    result["workers"] = workers
    return result


def ops_per_s(rounds) -> float:
    return sum(r["attempted"] for r in rounds) / sum(r["timed_s"] for r in rounds)


def end_to_end(args, workers):
    rounds = []
    measured = 0.0
    while measured < args.seconds:
        rounds.append(spawn(args.workload, args.seed, "plain", len(rounds), workers))
        measured += rounds[-1]["timed_s"]
    setups = [r["setup_s"] for r in rounds]
    for _ in range(SETUP_SAMPLES - len(setups)):
        setups.append(spawn(args.workload, args.seed, "setup")["setup_s"])
    attempted = sum(r["attempted"] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(rounds), "op/s"),
        "cpu_ms_per_op": (1e3 * sum(r["cpu_s"] for r in rounds) / attempted, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return rounds, metrics


def per_layer(args, workers):
    untraced = spawn(args.workload, args.seed, "plain", 0, workers)
    rounds = [untraced]
    speedup = {}
    if args.workload == "campaign":
        single = spawn(args.workload, args.seed, "plain", 0, 1)
        rounds.append(single)
        speedup = {
            "harness.workers_speedup": ops_per_s([untraced]) / ops_per_s([single]),
            "harness.ops_per_s_1worker": ops_per_s([single]),
            "harness.ops_per_s_nproc": ops_per_s([untraced]),
        }
        untraced = single
    traced = spawn(args.workload, args.seed, "traced", 0, 1)
    rounds.append(traced)
    layers = dict.fromkeys(PER_LAYER_EXTRA, 0.0)
    layers.update(traced["layers"])
    layers.update(speedup)
    layers["trace.untraced_ops_per_s"] = ops_per_s([untraced])
    layers["trace.traced_ops_per_s"] = ops_per_s([traced])
    layers["trace.overhead_ratio"] = ops_per_s([traced]) / ops_per_s([untraced])
    units = load_units()
    if set(layers) != set(units):
        raise RoundFailed(f"per-layer metrics differ from BENCHMARK.json: {set(layers) ^ set(units)}")
    return rounds, {name: (layers[name], unit) for name, unit in units.items()}


def load_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"error: not a source checkout, missing {missing}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workers = nproc() if args.workload == "campaign" else 1
    try:
        rounds, metrics = (per_layer if args.trace else end_to_end)(args, workers)
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "nproc": nproc(), "rounds": rounds, "result": result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
