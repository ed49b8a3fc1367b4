"""Run a set of benchmark runs, one per seed, on every workload of
BENCHMARK.json with its run_seconds, and report how steady each end-to-end
metric is.

    python3 perfbench/sets.py --seeds 1-10 [--baseline perfbench/baseline.json]

For each workload and metric it prints the median of the per-run values,
their quartiles, and the quartile spread (Q3 - Q1) / median as a share of
the metric's bound in BENCHMARK.json; a spread above a third of its bound
is flagged. It also pools the operations of all runs for the tail
percentile. Each run's median machine speed (speed.py), which its timings
have been scaled for, is printed and recorded beside them. With
``--baseline`` it adds one traced run per workload and writes everything,
with the environment, to the given JSON file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import sys
import time
from contextlib import redirect_stdout

import run
import stats

BASELINE_NOTE = (
    "Timings are CPU seconds scaled to the reference speed of speed.py, measured on a shared "
    "virtual machine whose speed switches between states about 1.7 times apart (speed_per_run). "
    "The scaling takes most of that out, but compare a change with its parent in alternating "
    "pairs on one machine, not with these numbers."
)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def quiet_run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    with redirect_stdout(io.StringIO()):
        return run.bench_run(workload, seed, seconds, trace)


def measure_workload(bench: dict, workload: str, seeds: list[int]) -> tuple[dict, bool]:
    specs = bench["end_to_end"]
    speeds: list[float] = []
    per_run: dict[str, list[float]] = {spec["name"]: [] for spec in specs}
    pooled: dict[str, list[float]] = {spec["name"]: [] for spec in specs}
    attempted = failed = 0
    longest = 0.0
    for seed in seeds:
        t0 = time.monotonic()
        result, ops = quiet_run(workload, seed, bench["run_seconds"], False)
        longest = max(longest, time.monotonic() - t0)
        attempted += result["attempted"]
        failed += result["failed"]
        for name in per_run:
            samples = [op[name] for op in ops if not op["traced"] and "wall_s" in op]
            per_run[name].append(stats.median(samples))
            pooled[name] += samples
        speeds.append(stats.median([op["speed"] for op in ops if "speed" in op]))
        print(
            f"{workload} seed {seed}: "
            + ", ".join(f"{k}={v[-1]:.6g}" for k, v in per_run.items())
            + f", speed={speeds[-1]:.6g}",
            flush=True,
        )
    steady = True
    out = {
        "seeds": seeds,
        "attempted": attempted,
        "failed": failed,
        "longest_run_s": longest,
        "speed_per_run": speeds,
        "metrics": {},
    }
    for spec in specs:
        name, values, bound = spec["name"], per_run[spec["name"]], spec["bound"]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = stats.quartile_spread(values)
        tail = stats.tail_percentile(pooled[name]) if spec["unit"] == "s" else None
        ok = spread < bound / 3
        steady = steady and ok
        out["metrics"][name] = {
            "unit": spec["unit"],
            "median": stats.median(values),
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "ops": len(pooled[name]),
            "ops_median": stats.median(pooled[name]),
            "ops_tail_percentile": tail[0] if tail else None,
            "ops_tail_value": tail[1] if tail else None,
        }
        print(
            f"  {name:<14} median {stats.median(values):<12.6g} {spec['unit']:<6} spread {spread:.4f}"
            f" (bound {bound}, {spread / bound:.2f} of it)"
            + ("" if ok else "  <-- above a third of the bound"),
            flush=True,
        )
    print(f"  speed of the runs: min {min(speeds):.6g}, median {stats.median(speeds):.6g}, max {max(speeds):.6g}")
    print(f"  failed_ops {failed}/{attempted}; longest run {longest:.1f} s", flush=True)
    return out, steady


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--baseline", default=None, help="write the set and a traced run per workload here")
    args = parser.parse_args()
    bench, _ = run.load_definitions()
    seeds = parse_seeds(args.seeds)
    record = {"note": BASELINE_NOTE, "environment": environment(), "run_seconds": bench["run_seconds"], "workloads": {}}
    all_steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        entry, steady = measure_workload(bench, workload, seeds)
        all_steady = all_steady and steady
        if args.baseline:
            traced, _ = quiet_run(workload, seeds[0], bench["run_seconds"], True)
            entry["traced"] = {"seed": seeds[0], "failed": traced["failed"], "per_layer": {
                k: v["value"] for k, v in traced["metrics"].items()
            }}
        record["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(record, fh, indent=1, allow_nan=False)
            fh.write("\n")
    print("steady" if all_steady else "NOT steady: a spread is above a third of its bound")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
