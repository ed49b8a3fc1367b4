"""One benchmark operation, run in a fresh Python process by run.py:

    python3 perfbench/op.py SPEC.json

SPEC names the experiments (CLI subcommand and generated config file), the
output directory, the operation id, whether to trace, and where to write
this operation's result. The operation imports adamlab, builds and
validates each config through ``cli.load_config``, then calls
``harness.run_experiment`` and ``harness.emit`` for each experiment in
turn, counting the work each result holds and then dropping it. It records
the monotonic time and this process's CPU time at each of these
boundaries; run.py scales them by the machine speed it measured meanwhile
(speed.py). With tracing on, the adamlab layers are wrapped (spans.py)
after the config is ready, so set-up time is the same in both modes.

Exit status: 0 when every experiment reports ``all_ok``, 1 otherwise (an
exception also exits 1).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

import spans

# Coarse boundaries that get one span per call: (module, function).
SPAN_TARGETS = (
    ("harness", "run_experiment"),
    ("harness", "emit"),
    ("optimizers", "adam_run"),
    ("optimizers", "adam_epoch"),
    ("optimizers", "gd_run"),
    ("optimizers", "export_trajectory_csv"),
    ("probes", "affine_noise_fit"),
    ("probes", "check_bounded_update"),
    ("probes", "check_u_gap"),
    ("theory", "compute_constants"),
    ("theory", "theorem2_construction"),
    ("theory", "gamma_threshold"),
)

# Hot leaves that get count and time aggregates: (module, class, method).
LEAF_TARGETS = (
    ("rng", "SplitMix64", "permutation"),
    ("landscapes", "FiniteSumObjective", "component_grad"),
    ("landscapes", "FiniteSumObjective", "full_grad"),
    ("landscapes", "FiniteSumObjective", "value"),
)


def install_tracer(op_id: int) -> spans.Tracer:
    """Wrap every target under each name its callers look up: ``harness``
    imports the optimizer, probe and theory functions by name, ``adam_run``
    finds ``adam_epoch`` as a module global, and objective methods are
    looked up on the class."""
    import adamlab
    from adamlab import cli, harness, landscapes, optimizers, probes, rng, theory

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in (harness, landscapes, optimizers, probes, rng, theory)}
    namespaces = [adamlab, cli, *mods.values()]
    tracer = spans.Tracer(op_id)
    for mod, name in SPAN_TARGETS:
        fn = getattr(mods[mod], name)
        if spans.rebind(namespaces, fn, tracer.span(f"{mod}.{name}", fn)) == 0:
            raise RuntimeError(f"{mod}.{name} is bound under no name")
    for mod, cls_name, name in LEAF_TARGETS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, name, tracer.leaf(f"{mod}.{name}", getattr(cls, name)))
    return tracer


def count_work(result, work: Counter) -> None:
    """Add the work one experiment did, counted from its returned
    trajectories and report, to ``work``."""
    from adamlab.landscapes import from_spec

    for traj in result.trajectories.values():
        work[f"status.{traj.status}"] += 1
        work["step_records"] += len(traj.steps)
        work["epoch_snapshots"] += len(traj.epochs)
        if traj.algo == "adam":
            n = from_spec(traj.objective_spec).n
            if traj.fail_step is None:
                work["adam_inner_steps"] += traj.params["epochs"] * n
            else:
                k, i = traj.fail_step
                work["adam_inner_steps"] += (k - 1) * n + i + 1
        else:
            work["gd_steps"] += traj.params["steps"] if traj.fail_step is None else traj.fail_step[0]
    for run in result.report["runs"]:
        for audit in ("bounded_update", "u_gap"):
            if audit in run:
                work[f"checks.{audit}"] += run[audit]["checked"]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (VmHWM). Not ``ru_maxrss``:
    on Linux that carries over the high-water mark of the process that
    spawned this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: spans.Tracer, work: Counter, emit_bytes: int, import_s: float, load_config_s: float) -> dict:
    """Per-layer metrics of one traced operation."""
    by = spans.per_name(tracer.spans)
    leaf = tracer.leaf_totals()

    def sp(name: str, key: str):
        return by.get(name, {}).get(key, 0)

    adam_steps, gd_steps = work["adam_inner_steps"], work["gd_steps"]
    m: dict = {}
    for name in ("rng.permutation", "landscapes.component_grad", "landscapes.full_grad", "landscapes.value"):
        calls, secs = leaf.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = secs
        m[f"{name}.us_per_call"] = _per(secs * 1e6, calls)
    m["landscapes.value.calls_per_step"] = _per(m["landscapes.value.calls"], adam_steps + gd_steps)

    m["optimizers.adam_inner_steps"] = adam_steps
    m["optimizers.gd_steps"] = gd_steps
    m["optimizers.adam_run.calls"] = sp("optimizers.adam_run", "calls")
    m["optimizers.adam_run.self_s"] = sp("optimizers.adam_run", "self_s")
    m["optimizers.adam_epoch.calls"] = sp("optimizers.adam_epoch", "calls")
    m["optimizers.adam_epoch.self_s"] = sp("optimizers.adam_epoch", "self_s")
    m["optimizers.adam_epoch.us_per_inner_step"] = _per(m["optimizers.adam_epoch.self_s"] * 1e6, adam_steps)
    m["optimizers.gd_run.calls"] = sp("optimizers.gd_run", "calls")
    m["optimizers.gd_run.self_s"] = sp("optimizers.gd_run", "self_s")
    m["optimizers.gd_run.us_per_step"] = _per(m["optimizers.gd_run.self_s"] * 1e6, gd_steps)
    m["optimizers.step_records"] = work["step_records"]
    m["optimizers.epoch_snapshots"] = work["epoch_snapshots"]
    for status in ("Completed", "Diverged", "NonFinite"):
        m[f"optimizers.runs.{status}"] = work[f"status.{status}"]
    m["optimizers.export_trajectory_csv.calls"] = sp("optimizers.export_trajectory_csv", "calls")
    m["optimizers.export_trajectory_csv.self_s"] = sp("optimizers.export_trajectory_csv", "self_s")

    m["harness.run_experiment.self_s"] = sp("harness.run_experiment", "self_s")
    m["harness.emit.s"] = sp("harness.emit", "total_s")
    m["harness.emit.self_s"] = sp("harness.emit", "self_s")
    m["harness.emit.files"] = work["emit_files"]
    m["harness.emit.bytes_per_s"] = _per(emit_bytes, m["harness.emit.s"])

    checks = 0
    for audit, probe in (("bounded_update", "check_bounded_update"), ("u_gap", "check_u_gap")):
        m[f"probes.{probe}.calls"] = sp(f"probes.{probe}", "calls")
        m[f"probes.{probe}.self_s"] = sp(f"probes.{probe}", "self_s")
        m[f"probes.{probe}.checks"] = work[f"checks.{audit}"]
        checks += work[f"checks.{audit}"]
    m["probes.affine_noise_fit.s"] = sp("probes.affine_noise_fit", "total_s")
    m["probes.checks_per_s"] = _per(
        checks, m["probes.check_bounded_update.self_s"] + m["probes.check_u_gap.self_s"]
    )
    for fn in ("compute_constants", "theorem2_construction", "gamma_threshold"):
        m[f"theory.{fn}.us_per_call"] = _per(sp(f"theory.{fn}", "total_s") * 1e6, sp(f"theory.{fn}", "calls"))
    m["cli.import_s"] = import_s
    m["cli.load_config.s"] = load_config_s
    return m


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t_import = time.monotonic()
    from adamlab import cli, harness

    t_imported = time.monotonic()
    configs = []
    for command, config_path in spec["experiments"]:
        args = cli.build_parser().parse_args([command, "--config", config_path, "--out", spec["out_dir"]])
        configs.append(cli.load_config(command, args))
    cpu_ready, t_ready = time.process_time(), time.monotonic()

    tracer = install_tracer(spec["op_id"]) if spec["trace"] else None
    run_intervals, emit_intervals = [], []  # [monotonic start, end, CPU seconds]
    all_ok = True
    work: Counter = Counter()
    emitted: list[str] = []
    for config in configs:
        if tracer is not None:
            tracer.context = config.experiment
        t0, c0 = time.monotonic(), time.process_time()
        result = harness.run_experiment(config)
        t1, c1 = time.monotonic(), time.process_time()
        emitted += harness.emit(result, config.out_dir, config.format)
        t2, c2 = time.monotonic(), time.process_time()
        run_intervals.append([t0, t1, c1 - c0])
        emit_intervals.append([t1, t2, c2 - c1])
        all_ok = all_ok and result.ok
        # count now and let the trajectories go, as the CLI does on exit,
        # so the next experiment's peak does not include them
        count_work(result, work)
        del result
    peak_mb = peak_rss_mb()

    work["emit_files"] = len(emitted)
    out = {
        "t_ready": t_ready,
        "cpu_ready": cpu_ready,
        "run": run_intervals,
        "emit": emit_intervals,
        "peak_rss_mb": peak_mb,
        "steps": work["adam_inner_steps"] + work["gd_steps"],
    }
    if tracer is not None:
        emit_bytes = sum(os.path.getsize(p) for p in emitted)
        out["layers"] = layer_metrics(tracer, work, emit_bytes, t_imported - t_import, t_ready - t_imported)
        out["leaves_by_experiment"] = {
            f"{name}@{context}": calls for (name, context), (calls, _) in sorted(tracer.leaves.items())
        }
        out["spans"] = tracer.spans
    with open(spec["result_path"], "w") as fh:
        json.dump(out, fh, allow_nan=False)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
