"""The adamlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. A closed loop with one client: it
runs one operation at a time, each in a fresh Python process (op.py) with a
fresh output directory, and starts the next only after the last has
finished, until the next one would end after S seconds. Each operation runs
the workload's experiments on configs generated from the seed and must pass
the correctness gate (gate.py).

The run pins itself and its operations to one CPU and, while an operation
runs, measures the speed of that CPU with a calibrator thread (speed.py).
Timings are the operation's CPU seconds scaled to a fixed reference speed.

With ``--trace 0`` it reports the end-to-end metrics listed in
BENCHMARK.json, each the median over the operations of the run. With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics (medians over the traced operations) and the tracing
overhead; the spans of the traced operations go to
``.perfbench_trace/<workload>-seed<N>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Optional

import gate
import speed
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")

MIN_OPS = 2  # at least two operations, so the emitted trees can be compared
RUN_LIMIT_S = 170.0  # a run must end well within three minutes


class BenchError(Exception):
    """The benchmark cannot run here: missing sources or definitions."""


def load_definitions() -> tuple[dict, dict]:
    src = os.path.join(ROOT, "src", "adamlab", "__init__.py")
    if not os.path.isfile(src):
        raise BenchError(f"no adamlab sources at {os.path.relpath(src, ROOT)}; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    return bench, reference


def run_op(
    op_id: int, run_dir: str, experiments: list, expected: dict, traced: bool, timeout: float, chunk: speed.Chunk
) -> dict:
    """Run one operation in its own process and output directory, gate it,
    and remove the directory. Returns its measurements and problems."""
    op_dir = os.path.join(run_dir, f"op{op_id}")
    out_dir = os.path.join(op_dir, "out")
    os.makedirs(op_dir)
    spec_path = os.path.join(op_dir, "spec.json")
    result_path = os.path.join(op_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(
            {"experiments": experiments, "out_dir": out_dir, "op_id": op_id, "trace": traced, "result_path": result_path},
            fh,
            allow_nan=False,
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    op = {"id": op_id, "traced": traced, "problems": []}
    calibrator = speed.Calibrator(chunk).start()
    cpu_before = child_cpu_s()
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "op.py"), spec_path],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
        returncode = proc.returncode
        if returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    except subprocess.TimeoutExpired:
        returncode = -1
        op["problems"].append(f"timed out after {timeout:.0f} s")
    finally:
        t_exit = time.monotonic()
        calibrator.stop()
    op["elapsed_s"] = t_exit - t_spawn
    try:
        if os.path.isfile(result_path):
            with open(result_path) as fh:
                res = json.load(fh)
            op_rate = calibrator.rate(t_spawn, t_exit)

            def scaled(intervals: list) -> float:
                return sum(speed.reference_seconds(cpu, calibrator.rate(a, b)) for a, b, cpu in intervals)

            wall_s = speed.reference_seconds(child_cpu_s() - cpu_before, op_rate)
            run_s = scaled(res["run"])
            op.update(
                speed=op_rate,
                wall_s=wall_s,
                setup_s=scaled([[t_spawn, res["t_ready"], res["cpu_ready"]]]),
                run_s=run_s,
                emit_s=scaled(res["emit"]),
                steps_per_s=res["steps"] / run_s,
                peak_rss_mb=res["peak_rss_mb"],
                layers=res.get("layers"),
                leaves_by_experiment=res.get("leaves_by_experiment"),
                spans=res.get("spans"),
                # traced clocks run in wall time beside the calibrator
                wall_scale=wall_s / (t_exit - t_spawn),
            )
        summaries: dict[str, Optional[dict]] = {}
        for experiment in expected:
            path = os.path.join(out_dir, experiment, "report.json")
            summaries[experiment] = gate.summarize(gate.read_report(path)) if os.path.isfile(path) else None
        op["problems"] += gate.check_op(returncode, summaries, expected)
        if os.path.isdir(out_dir):
            op["bytes_written"], op["digest"] = gate.tree_digest(out_dir)
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    return op


def child_cpu_s() -> float:
    """CPU seconds of the finished child processes of this one."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def pin_to_one_cpu() -> tuple[int, set]:
    """Pin this thread, and so the calibrator and operations it starts, to
    the lowest CPU it may run on. Returns that CPU and the CPUs it was
    allowed before."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, allowed


def estimate_elapsed(ops: list[dict], traced: bool) -> float:
    """Expected elapsed time of the next operation, traced or not."""
    same_kind = [op["elapsed_s"] for op in ops if op["traced"] == traced]
    if same_kind:
        return stats.median(same_kind)
    return max((op["elapsed_s"] for op in ops), default=0.0)


def check_digests(ops: list[dict]) -> Optional[str]:
    """Mark operations whose emitted tree differs from the most common one.
    Returns that digest."""
    digests = Counter(op["digest"] for op in ops if "digest" in op)
    if not digests:
        return None
    common = digests.most_common(1)[0][0]
    for op in ops:
        if op.get("digest", common) != common:
            op["problems"].append(f"emitted tree {op['digest'][:12]} differs from {common[:12]}")
    return common


def describe(name: str, unit: str, values: list[float]) -> str:
    line = f"  {name:<14} {stats.median(values):>14.6g} {unit:<6} median of n={len(values)}"
    if unit != "s":
        return line  # tail percentiles are reported for timings only
    tail = stats.tail_percentile(values)
    return line + (f"; p{tail[0]} {tail[1]:.6g}" if tail else f"; no tail percentile below {stats.TAIL_BEYOND + 1} samples")


def describe_speed(ops: list[dict]) -> None:
    """Print the calibrator's speed over the operations: how fast the
    machine ran, which the timings have been scaled for."""
    values = [op["speed"] for op in ops if "speed" in op]
    if values:
        print(
            f"  speed          {stats.median(values):>14.6g} chunks per CPU second, median of n={len(values)};"
            f" min {min(values):.6g}, max {max(values):.6g} (reference {speed.REFERENCE_RATE:g})"
        )


def end_to_end(bench: dict, ops: list[dict]) -> dict:
    """The end-to-end metrics; none when no untraced operation ran to the
    end, which the gate has then counted as failed."""
    timed = [op for op in ops if not op["traced"] and "wall_s" in op]
    if not timed:
        return {}
    metrics = {}
    for spec in bench["end_to_end"]:
        values = [op[spec["name"]] for op in timed]
        print(describe(spec["name"], spec["unit"], values))
        metrics[spec["name"]] = {"value": stats.median(values), "unit": spec["unit"]}
    return metrics


def per_layer(bench: dict, ops: list[dict]) -> dict:
    """The per-layer metrics and the tracing overhead; none when no traced
    and untraced operation both ran to the end."""
    traced = [op for op in ops if op["traced"] and op.get("layers")]
    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    if not traced or not plain:
        return {}
    plain_wall = stats.median([op["wall_s"] for op in plain])
    overhead = stats.median([op["wall_s"] for op in traced]) - plain_wall
    values = {"trace.overhead_s": overhead, "trace.overhead_share": overhead / plain_wall}
    units = {spec["name"]: spec["unit"] for spec in bench["per_layer"]}
    if set(traced[0]["layers"]) | set(values) != set(units):
        raise BenchError(
            f"per-layer metrics differ from BENCHMARK.json: {sorted((set(traced[0]['layers']) | set(values)) ^ set(units))}"
        )
    for name in traced[0]["layers"]:
        values[name] = stats.median([to_reference(op["layers"][name], units[name], op["wall_scale"]) for op in traced])
    metrics = {}
    for spec in bench["per_layer"]:
        print(f"  {spec['name']:<44} {values[spec['name']]:>14.6g} {spec['unit']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    print(f"  traced n={len(traced)}, untraced n={len(plain)}; leaf calls by experiment (first traced op):")
    for key, calls in traced[0]["leaves_by_experiment"].items():
        print(f"    {key:<44} {calls}")
    return metrics


def to_reference(value: float, unit: str, wall_scale: float) -> float:
    """A layer metric measured with the traced operation's wall clock, in
    reference seconds: times scale by ``wall_scale``, rates inversely."""
    if unit in ("s", "us"):
        return value * wall_scale
    if unit.endswith("/s"):
        return value / wall_scale
    return value


def write_trace(workload: str, seed: int, ops: list[dict]) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    payload = {
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "leaf_s", "op"],
        "spans": [s for op in ops if op.get("spans") for s in op["spans"]],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, allow_nan=False)
    return path


def bench_run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """One benchmark run. Returns the result line and the operations."""
    bench, reference = load_definitions()
    cpu, allowed = pin_to_one_cpu()
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    t_begin = time.monotonic()
    try:
        experiments, expected = [], {}
        for command, overrides in workloads.configs(workload, seed):
            experiment = workloads.SUBCOMMAND_EXPERIMENT[command]
            path = os.path.join(run_dir, f"{command}.json")
            with open(path, "w") as fh:
                json.dump({"experiment": experiment, **overrides}, fh, allow_nan=False)
            experiments.append([command, path])
            expected[experiment] = gate.expected_for(reference, experiment, overrides["seeds"])

        chunk = speed.Chunk()
        for _ in range(speed.Chunk.KEEP // speed.Chunk.STEPS):
            chunk()  # fill its rings, so every operation sees it in the same state
        ops: list[dict] = []
        while True:
            traced = trace and len(ops) % 2 == 1
            elapsed = time.monotonic() - t_begin
            ahead = elapsed + estimate_elapsed(ops, traced)
            if ops and (ahead > RUN_LIMIT_S or (len(ops) >= MIN_OPS and ahead > seconds)):
                break
            ops.append(run_op(len(ops), run_dir, experiments, expected, traced, max(RUN_LIMIT_S - elapsed, 1.0), chunk))
            if "wall_s" not in ops[-1]:
                break  # the program did not run to the end; another attempt would repeat that
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run is using it

    digest = check_digests(ops)
    failed = sum(1 for op in ops if op["problems"])
    print(f"workload {workload}  seed {seed}  experiment seeds {workloads.experiment_seeds(workload, seed)}  cpu {cpu}")
    print(f"  operations {len(ops)}, failed_ops {failed}/{len(ops)} = {failed / len(ops):.3f}")
    print(f"  emitted tree sha256 {digest}")
    for op in ops:
        for problem in op["problems"]:
            print(f"  op{op['id']}: {problem}")
    describe_speed(ops)
    metrics = per_layer(bench, ops) if trace else end_to_end(bench, ops)
    if trace and metrics:
        print(f"  spans written to {os.path.relpath(write_trace(workload, seed, ops), ROOT)}")
    return {"correct": failed == 0 and bool(metrics), "attempted": len(ops), "failed": failed, "metrics": metrics}, ops


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, _ = bench_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
