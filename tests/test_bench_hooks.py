"""The benchmark's hooks into the package still hold.

``perfbench/op.py`` wraps the functions it names in ``SPAN_TARGETS`` and
``LEAF_TARGETS`` and counts work from the trajectories a result returns. A
refactor that renames one of them, or stops ``adam_run`` from finding
``adam_epoch`` as a module global, breaks the traced benchmark; these tests
make it fail here first.
"""

import importlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from adamlab import cli, optimizers
from adamlab.harness import run_experiment
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
    calls = []
    real = optimizers.adam_epoch

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizers, "adam_epoch", counted)
    traj = optimizers.adam_run(zhang_counterexample(), [-2.0], optimizers.AdamParams(epochs=7))
    assert traj.status == optimizers.STATUS_COMPLETED
    assert len(calls) == 7


def _counted(monkeypatch, name):
    calls = []
    real = getattr(FiniteSumObjective, name)

    def counted(self, *args):
        calls.append(len(args[0]) if name == "mean_values" else 1)
        return real(self, *args)

    monkeypatch.setattr(FiniteSumObjective, name, counted)
    return calls


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


def _result(command, overrides, tmp_path):
    # built the way op.py builds it: through the CLI's config loader
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(overrides))
    args = cli.build_parser().parse_args([command, "--config", str(path), "--out", str(tmp_path)])
    return run_experiment(cli.load_config(command, args))


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
