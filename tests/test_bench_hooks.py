"""The benchmark's hooks into the package still hold.

``perfbench/op.py`` wraps the functions it names in ``SPAN_TARGETS`` and
``LEAF_TARGETS`` and counts work from the trajectories a result returns. A
refactor that renames one of them, or stops ``adam_run`` from finding
``adam_epoch`` as a module global where it runs the generic loop, breaks the
traced benchmark; these tests make it fail here first.
"""

import importlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from adamlab import cli, harness, landscapes, optimizers
from adamlab.harness import default_config_for, merge_config, run_experiment
from adamlab.landscapes import FiniteSumObjective, lowerbound_objective, zhang_counterexample

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def op():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("op")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_target_resolves(op):
    for mod, name in op.SPAN_TARGETS:
        assert callable(getattr(importlib.import_module(f"adamlab.{mod}"), name)), (mod, name)
    for mod, cls, name in op.LEAF_TARGETS:
        owner = getattr(importlib.import_module(f"adamlab.{mod}"), cls)
        assert callable(getattr(owner, name)), (mod, cls, name)


def test_adam_run_calls_adam_epoch_as_module_global_once_per_epoch(monkeypatch):
    # the generic loop's objectives, here d = 2; an objective with an
    # affine1 pair runs in adam_run's own loop and calls it never
    calls = []
    real = optimizers.adam_epoch

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizers, "adam_epoch", counted)
    obj = lowerbound_objective(1.0, 1.0, 0.5)
    traj = optimizers.adam_run(obj, [0.5, 2.0], optimizers.AdamParams(epochs=7))
    assert traj.status == optimizers.STATUS_COMPLETED
    assert len(calls) == 7
    calls.clear()
    optimizers.adam_run(zhang_counterexample(), [-2.0], optimizers.AdamParams(epochs=7))
    assert calls == []


def _counted(monkeypatch, name):
    calls = []
    real = getattr(FiniteSumObjective, name)

    def counted(self, *args):
        calls.append(len(args[0]) if name == "mean_values" else 1)
        return real(self, *args)

    monkeypatch.setattr(FiniteSumObjective, name, counted)
    return calls


@pytest.mark.parametrize("init_mode, per_lane", [("PaperTheory", 10 + 1), ("ZeroState", 0)])
def test_lockstep_lanes_call_the_traced_leaves_as_scalar_runs_do(monkeypatch, init_mode, per_lane):
    # the default LemmaSuite grid's 24 cells share one stream and run as the
    # lanes of one lockstep group; each lane still evaluates one full
    # gradient per snapshot, and a PaperTheory lane's warm start n + 1
    # component gradients, so the benchmark's leaves count the same work
    inside, counts = [], Counter()
    real_cells = harness.run_cells

    def run_cells(*args):
        inside.append(1)
        try:
            return real_cells(*args)
        finally:
            inside.pop()

    def count(name):
        real = getattr(FiniteSumObjective, name)

        def counted(self, *args):
            counts[name] += bool(inside)
            return real(self, *args)

        monkeypatch.setattr(FiniteSumObjective, name, counted)

    def no_scalar_run(*args):
        raise AssertionError("a scalar Adam run")

    monkeypatch.setattr(harness, "run_cells", run_cells)
    monkeypatch.setattr(harness, "adam_run", no_scalar_run)
    count("full_grad")
    count("component_grad")
    config = merge_config(default_config_for("LemmaSuite"), {"T": 5, "options": {"init_mode": init_mode}})
    trajs = run_experiment(config).trajectories.values()
    assert len(trajs) == 24 >= harness.LOCKSTEP_MIN_LANES
    assert counts["full_grad"] == sum(len(t.epochs) for t in trajs) == 24 * 6
    assert counts["component_grad"] == 24 * per_lane


def test_runs_evaluate_f_value_once_per_table_after_the_loop(monkeypatch):
    # f_value is filled from the stored iterates through mean_values, never
    # by a scalar evaluation inside the loop
    scalar = _counted(monkeypatch, "value")
    tables = _counted(monkeypatch, "mean_values")
    p = optimizers.AdamParams(epochs=7, record_steps=True)
    traj = optimizers.adam_run(zhang_counterexample(), [-2.0], p)
    assert traj.status == optimizers.STATUS_COMPLETED
    assert scalar == []
    # the epoch table (8 snapshots) and the step table (70 steps)
    assert sorted(tables) == [8, 70]
    # GD: the epoch table only; its step table slices those values
    tables.clear()
    obj = lowerbound_objective(1.0, 1.0, 0.5)
    traj = optimizers.gd_run(obj, [0.5, 2.0], eta1=0.1, steps=5)
    assert tables == [6]
    assert scalar == []  # LowerBound's rows come from its row kernel too


def test_fig3_and_lemmas_sum_every_f_value_row_in_numpy(monkeypatch):
    # mean_values certifies each row's math.fsum in NumPy on the default
    # landscape; a row it cannot certify would go through the scalar _sum
    inside, rows, fallback = [], [], []
    real_mean_values, real_sum = FiniteSumObjective.mean_values, landscapes._sum

    def mean_values(self, W):
        inside.append(1)
        rows.append(len(W))
        try:
            return real_mean_values(self, W)
        finally:
            inside.pop()

    def scalar_sum(vals):
        if inside:
            fallback.append(vals)
        return real_sum(vals)

    monkeypatch.setattr(FiniteSumObjective, "mean_values", mean_values)
    monkeypatch.setattr(landscapes, "_sum", scalar_sum)
    for name, T in (("Fig3", 1000), ("LemmaSuite", 100)):
        rows.clear()
        run_experiment(merge_config(default_config_for(name), {"T": T}))
        assert sum(rows) > 1000, name
    assert fallback == []


def _result(command, overrides, tmp_path):
    # built the way op.py builds it: through the CLI's config loader
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(overrides))
    args = cli.build_parser().parse_args([command, "--config", str(path), "--out", str(tmp_path)])
    return run_experiment(cli.load_config(command, args))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_calls_export_trajectory_csv_as_module_global_once_per_trajectory(monkeypatch, tmp_path, fmt):
    # in run id order; the traced optimizers.export_trajectory_csv span
    # covers each run's trajectory.csv and, in CSV, its plot-table block
    # written beside it
    calls = []
    real = harness.export_trajectory_csv

    def counted(traj, *args, **kwargs):
        calls.append(traj)
        return real(traj, *args, **kwargs)

    monkeypatch.setattr(harness, "export_trajectory_csv", counted)
    for command, overrides in (("thm2-slow", {"options": {"steps": 200}}), ("lemmas", {"T": 3})):
        result = _result(command, overrides, tmp_path)
        calls.clear()
        harness.emit(result, str(tmp_path / "out"), fmt)
        trajs = result.trajectories
        assert list(map(id, calls)) == [id(trajs[rid]) for rid in sorted(trajs)], command


def test_count_work_counts_table_rows(op, tmp_path):
    lemmas = _result("lemmas", {"T": 5}, tmp_path)
    slow = _result("thm2-slow", {"T": 200, "options": {"steps": 200}}, tmp_path)
    for result, steps, snapshots in (
        # 24 grid cells x 5 epochs x 10 components; 6 snapshots per run
        (lemmas, 24 * 5 * 10, 24 * 6),
        # two step sizes complete 200 steps with 201 snapshots; the third
        # diverges on step 4, which is recorded, with no closing snapshot
        (slow, 2 * 200 + 4, 2 * 201 + 4),
    ):
        work = Counter()
        op.count_work(result, work)
        trajs = result.trajectories.values()
        assert work["step_records"] == sum(len(t.steps) for t in trajs) == steps
        assert work["epoch_snapshots"] == sum(len(t.epochs) for t in trajs) == snapshots
    work = Counter()
    op.count_work(lemmas, work)
    assert work["adam_inner_steps"] == work["step_records"]


def test_traced_benchmark_counts_the_objective_leaves_the_runs_call(tmp_path):
    # op.py traced in its own process, as the benchmark runs it: it replaces
    # component_grad, full_grad and value on the class after objects exist,
    # so they must stay plain methods there. Every epoch snapshot evaluates
    # one full gradient; no run evaluates a value.
    experiments = [
        ("fig3", {"seeds": [1, 2], "T": 20, "options": {"beta2_grid": [0.9]}}),
        ("thm2-slow", {"options": {"steps": 200}}),
    ]
    paths = []
    for command, config in experiments:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        paths.append([command, str(path)])
    spec = {
        "experiments": paths, "out_dir": str(tmp_path / "out"), "op_id": 1, "trace": True,
        "result_path": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "op.py"), str(tmp_path / "spec.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads((tmp_path / "result.json").read_text())
    layers, leaves = res["layers"], res["leaves_by_experiment"]
    # Fig3: 2 runs x (20 epochs + the closing snapshot)
    assert leaves["landscapes.full_grad@Fig3"] == 2 * 21
    assert layers["landscapes.full_grad.calls"] == layers["optimizers.epoch_snapshots"]
    assert leaves["landscapes.full_grad@Thm2Slow"] > 0
    # both objectives' f_value columns come from their row kernels
    assert "landscapes.value@Fig3" not in leaves
    assert "landscapes.value@Thm2Slow" not in leaves
