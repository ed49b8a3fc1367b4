"""Runs op.py in its own process on tiny configs, traced, and checks the
work counts the tracer sees against what the configs imply."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def run_op(tmp_path, experiments, trace=True):
    paths = []
    for command, config in experiments:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        paths.append([command, str(path)])
    spec = {
        "experiments": paths,
        "out_dir": str(tmp_path / "out"),
        "op_id": 3,
        "trace": trace,
        "result_path": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "op.py"), str(tmp_path / "spec.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, json.loads((tmp_path / "result.json").read_text())


# short runs do not reach the beta2 ordering Fig3 asserts, so use one beta2
TINY_FIG3 = {"experiment": "Fig3", "seeds": [1, 2], "T": 20, "options": {"beta2_grid": [0.9]}}


def test_traced_tiny_fig3_counts(tmp_path):
    code, res = run_op(tmp_path, [("fig3", TINY_FIG3)])
    assert code == 0
    layers = res["layers"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(layers) == declared - {"trace.overhead_s", "trace.overhead_share"}
    runs, epochs, n = 2, 20, 10
    assert layers["rng.permutation.calls"] == runs * epochs
    assert layers["optimizers.adam_epoch.calls"] == runs * epochs
    assert layers["optimizers.adam_run.calls"] == runs
    assert layers["optimizers.adam_inner_steps"] == runs * epochs * n
    # n + 1 warm-start gradients per run, then one per inner step
    assert layers["landscapes.component_grad.calls"] == runs * (epochs * n + n + 1)
    # one snapshot per epoch plus the closing one
    assert layers["optimizers.epoch_snapshots"] == runs * (epochs + 1)
    assert layers["landscapes.full_grad.calls"] == runs * (epochs + 1)
    assert layers["optimizers.export_trajectory_csv.calls"] == runs
    assert layers["probes.check_bounded_update.calls"] == 0
    assert layers["optimizers.gd_run.calls"] == 0
    assert res["steps"] == runs * epochs * n
    assert all(s[5] == 3 for s in res["spans"])
    assert layers["optimizers.adam_epoch.self_s"] > 0


def test_traced_tiny_lemma_and_gd_counts(tmp_path):
    code, res = run_op(
        tmp_path,
        [
            ("lemmas", {"experiment": "LemmaSuite", "T": 3}),
            ("thm2-diverge", {"experiment": "Thm2Divergence"}),
        ],
    )
    assert code == 0
    layers = res["layers"]
    assert layers["probes.check_bounded_update.calls"] == 24
    assert layers["probes.check_u_gap.calls"] == 24
    assert layers["theory.compute_constants.us_per_call"] > 0
    assert layers["theory.theorem2_construction.us_per_call"] > 0
    assert layers["optimizers.gd_run.calls"] == 3
    assert layers["optimizers.runs.Diverged"] == 3
    assert layers["optimizers.step_records"] == 24 * 3 * 10 + layers["optimizers.gd_steps"]
    assert res["leaves_by_experiment"]["rng.permutation@LemmaSuite"] == 24 * 3
    assert "rng.permutation@Thm2Divergence" not in res["leaves_by_experiment"]


def test_untraced_op_reports_timings_only(tmp_path):
    code, res = run_op(tmp_path, [("fig3", TINY_FIG3)], trace=False)
    assert code == 0
    assert "layers" not in res and "spans" not in res
    assert res["cpu_ready"] > 0 and res["t_ready"] > 0
    # one [start, end, CPU seconds] interval per experiment and phase
    for phase in ("run", "emit"):
        (start, end, cpu_s), = res[phase]
        assert res["t_ready"] <= start < end and cpu_s > 0
    assert res["run"][0][1] == res["emit"][0][0]


def test_peak_rss_is_the_operation_own(tmp_path):
    # the spawning process peaks far above what a tiny operation needs
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    del ballast
    code, res = run_op(tmp_path, [("fig3", TINY_FIG3)], trace=False)
    assert code == 0
    assert 1.0 < res["peak_rss_mb"] < 150.0


def test_failed_assertion_exits_one(tmp_path):
    # a Fig3 floor no run can stay above makes all_ok false
    config = {**TINY_FIG3, "options": {"beta2_grid": [0.9], "grad_floor": 1e300}}
    code, _ = run_op(tmp_path, [("fig3", config)], trace=False)
    assert code == 1
