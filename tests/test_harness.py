import dataclasses
import functools
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import typing
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import adamlab
from adamlab import cli, harness
from adamlab.cli import build_parser, load_config
from adamlab.cli import main as cli_main
from adamlab.harness import (
    REGISTRY,
    ExperimentConfig,
    default_config_for,
    emit,
    merge_config,
    run_experiment,
)
from adamlab.landscapes import (
    _LOADABLE, FiniteSumObjective, from_spec, lowerbound_objective, quadratic_sum, to_spec, zhang_counterexample,
)
from adamlab.optimizers import AdamArm, AdamParams
from adamlab.schema import Axis, fields_of


def small_custom_config(**options):
    opts = {"algo": "adam", "x0": [4.0], "record_steps": False}
    opts.update(options)
    return ExperimentConfig(
        experiment="Custom",
        objective=to_spec(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]])),
        seeds=[1],
        T=5,
        options=opts,
    )


def tree_digest(root):
    acc = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            rel = os.path.relpath(p, root)
            with open(p, "rb") as fh:
                acc[rel] = hashlib.sha256(fh.read()).hexdigest()
    return acc


# ------------------------------------------------------------------- config


def test_merge_config_replaces_top_level_and_merges_options():
    base = default_config_for("Fig3")
    out = merge_config(base, {"T": 42, "options": {"eta1": 0.5}})
    assert out.T == 42
    assert out.options["eta1"] == 0.5
    # untouched option keys survive the merge
    assert out.options["beta2_grid"] == base.options["beta2_grid"]
    assert out.experiment == "Fig3"
    # base is not mutated
    assert base.T == 10_000 and base.options["eta1"] == 0.1


def test_default_objective_spec_is_the_counterexample():
    assert harness.ZHANG_SPEC == to_spec(zhang_counterexample())
    for name in ("Fig3", "LemmaSuite"):
        assert default_config_for(name).objective == harness.ZHANG_SPEC


def test_changing_a_default_config_leaves_the_next_unchanged():
    for name in ("Fig3", "LemmaSuite"):
        config = default_config_for(name)
        config.objective["parameters"]["scale"] = 2.0
        config.objective["n"] = 3
        assert default_config_for(name).objective == to_spec(zhang_counterexample())


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="Nope").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="Fig3", seeds=[]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="Fig3", seeds=[-1]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="Fig3", format="yaml").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="Fig3", T=-1).validate()


def test_config_round_trip():
    cfg = default_config_for("Thm2Slow")
    back = merge_config(ExperimentConfig(experiment=cfg.experiment), asdict(cfg))
    assert asdict(back) == asdict(cfg)


def test_all_default_configs_validate():
    for name in REGISTRY:
        if name == "Custom":  # its default config has no objective, which it needs
            with pytest.raises(ValueError, match="^objective: "):
                default_config_for(name).validate()
        else:
            default_config_for(name).validate()
    with pytest.raises(ValueError):
        default_config_for("Mystery")


# ------------------------------------------------------------------ runners


def test_run_custom_quadratic_completes():
    result = run_experiment(small_custom_config())
    assert result.ok
    assert result.report["conclusions"]["statuses"] == ["Completed"]
    [run] = result.report["runs"]
    assert run["run_id"] == "adam-seed=1"
    assert result.report["config"]["out_dir"] is None


def test_run_custom_without_objective_rejected():
    cfg = ExperimentConfig(experiment="Custom", seeds=[1], T=5)
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_run_custom_gd_and_clipped_gd():
    for algo, gd in (("gd", {"eta1": 0.1}), ("clipped_gd", {"eta1": 0.1, "clip_threshold": 1.0})):
        cfg = small_custom_config(algo=algo, gd=gd)
        result = run_experiment(cfg)
        assert result.ok
        [rid] = list(result.trajectories)
        assert result.trajectories[rid].algo == algo


def test_cli_custom_clipped_gd_runs_when_the_gradient_norm_overflows(tmp_path):
    # finite partials of 1.7e308 whose norm is inf used to end the CLI with
    # a ZeroDivisionError traceback
    config = {
        "objective": to_spec(quadratic_sum([1.7e300] * 2, [[0.0, 0.0]] * 2)),
        "seeds": [1],
        "T": 3,
        "options": {"algo": "clipped_gd", "x0": [1e8, 1e8], "record_steps": True,
                    "gd": {"eta1": 1e-300, "clip_threshold": 1.0}},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["custom", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_run_fig3_structure_and_ordering_of_rows():
    cfg = merge_config(default_config_for("Fig3"), {"T": 50, "seeds": [2, 1]})
    result = run_experiment(cfg)
    runs = result.report["runs"]
    assert len(runs) == 6  # 3 grid values x 2 seeds
    assert [r["run_id"] for r in runs] == sorted(r["run_id"] for r in runs)
    for r in runs:
        assert r["status"] == "Completed"
        assert isinstance(r["tail_mean_grad_norm"], float)
    # the plot table is each run's epoch columns and constants, runs in
    # sorted run id order
    table = result.plot_tables["grad_norms"]
    order = sorted(result.trajectories)
    assert [block["run_id"] for block in table] == order
    for block, r in zip(table, runs):
        e = result.trajectories[r["run_id"]].epochs
        assert (block["beta2"], block["seed"]) == (r["beta2"], r["seed"])
        assert block["k"] is e.k and block["grad_norm"] is e.grad_norm
    con = result.report["conclusions"]
    assert set(con) >= {"floor_ok_per_seed", "ordering_ok_per_seed", "all_ok"}


def test_run_thm2_diverge_defaults_pass():
    result = run_experiment(default_config_for("Thm2Divergence"))
    con = result.report["conclusions"]
    assert con["all_ok"] is True
    assert con["total_growth_checks"] >= con["min_checks_total"]
    assert all(v >= 3 for v in con["per_run_counts"].values())
    for r in result.report["runs"]:
        assert r["diverged"] is True
        assert r["growth_ok"] is True


def test_run_thm2_slow_shortened_floor_holds():
    cfg = merge_config(default_config_for("Thm2Slow"), {"options": {"steps": 400}})
    result = run_experiment(cfg)
    con = result.report["conclusions"]
    assert con["horizon_in_window"] is True
    assert con["floor_ok_all"] is True
    assert con["completions_ok"] is True
    assert con["all_ok"] is True
    assert result.report["construction"]["slow_horizon"] == 9390


@pytest.mark.parametrize("command, options", [
    ("thm2-slow", {"steps": 400}),
    ("compare", {"gd_steps": 400, "adam": {"epochs": 40}}),
], ids=["thm2-slow", "compare"])
def test_horizon_scan_skips_a_later_nan_as_python_min_does(command, options, monkeypatch):
    # the floor scan reads the grad_norm column as Python floats: a NaN
    # after the first norm never wins a comparison, so min() skips it
    real_gd_run = harness.gd_run

    def gd_run_with_nan(*args, **kwargs):
        traj = real_gd_run(*args, **kwargs)
        norms = traj.epochs.grad_norm.copy()
        norms[1] = math.nan
        traj.epochs = replace(traj.epochs, grad_norm=norms)
        return traj

    monkeypatch.setattr(harness, "gd_run", gd_run_with_nan)
    [name] = [exp.name for exp in REGISTRY.values() if exp.command == command]
    result = run_experiment(merge_config(default_config_for(name), {"options": options}))
    epsilon = result.report["construction"]["epsilon"]
    gd_runs = [run for run in result.report["runs"] if run.get("algo") != "adam"]
    assert len(gd_runs) >= 3
    for run in gd_runs:
        norms = result.trajectories[run["run_id"]].epochs.grad_norm.tolist()
        least = min(norms[:1] + norms[2:])
        assert run["min_grad_before_horizon"] == least
        if command == "thm2-slow":
            assert run["checked_before_horizon"] == len(norms) >= 3
            assert run["floor_ok"] is True
        else:
            verdict = "diverged" if run["status"] == "Diverged" else ("stuck" if least >= epsilon else "progressed")
            assert run["verdict"] == verdict
    if command == "compare":
        assert {run["verdict"] for run in gd_runs} == {"stuck", "diverged"}


def test_run_comparison_structure():
    adam_opts = dict(default_config_for("AdamVsGd").options["adam"], epochs=40)
    cfg = merge_config(
        default_config_for("AdamVsGd"),
        {"options": {"gd_steps": 300, "adam": adam_opts}},
    )
    result = run_experiment(cfg)
    gd_runs = [r for r in result.report["runs"] if r.get("algo") == "gd"]
    assert len(gd_runs) == 5
    for r in gd_runs:
        assert r["verdict"] in ("diverged", "stuck", "progressed")
    [adam_run_] = [r for r in result.report["runs"] if r.get("algo") == "adam"]
    assert adam_run_["beta2_admissible"] is True
    # 40 epochs is far too few to cross the floor
    assert result.report["conclusions"]["adam_reached_epsilon"] is False


def test_run_lemma_suite_small_grid_clean():
    cfg = merge_config(
        default_config_for("LemmaSuite"),
        {
            "T": 20,
            "options": {
                "beta1_grid": [0.0, 0.9],
                "beta2_grid": [0.999],
                "eta1_grid": [0.01],
                "schedules": ["Diminishing", "Constant"],
            },
        },
    )
    result = run_experiment(cfg)
    con = result.report["conclusions"]
    assert con["runs"] == 4
    assert con["total_violations"] == 0
    assert con["all_ok"] is True
    assert 0.0 < con["max_ratio"] <= 1.0


def test_lemma_suite_skips_momentum_dominated_combos():
    cfg = merge_config(
        default_config_for("LemmaSuite"),
        {
            "T": 5,
            "options": {
                "beta1_grid": [0.0, 0.9],
                "beta2_grid": [0.5],  # beta1^2 = 0.81 >= 0.5 is skipped
                "eta1_grid": [0.01],
                "schedules": ["Diminishing"],
            },
        },
    )
    result = run_experiment(cfg)
    assert result.report["conclusions"]["runs"] == 1
    assert [r["beta1"] for r in result.report["runs"]] == [0.0]
    # a grid whose every pair is skipped would audit nothing: a config error
    with pytest.raises(ValueError, match="beta1_grid"):
        merge_config(cfg, {"options": {"beta1_grid": [0.9]}}).validate()


SMALL_CONFIGS = {
    "Fig3": {"T": 20, "seeds": [2, 1]},
    "Thm2Divergence": {"options": {"eta_multipliers": [2, 10.0, 1.05]}},
    "Thm2Slow": {"options": {"steps": 100}},
    "AdamVsGd": {"options": {"gd_steps": 100, "adam": {"epochs": 20}}},
    "LemmaSuite": {"T": 5},
    "Custom": asdict(small_custom_config(algo="gd", gd={"eta1": 0.1})) | {"seeds": [3, 1]},
}


def test_every_experiment_joins_each_run_to_its_row_trajectory_and_block():
    assert set(SMALL_CONFIGS) == set(REGISTRY)
    for name, overrides in SMALL_CONFIGS.items():
        result = run_experiment(merge_config(default_config_for(name), overrides))
        ids = [row["run_id"] for row in result.report["runs"]]
        assert len(ids) > 1 and ids == sorted(ids) == list(result.trajectories), name
        table = REGISTRY[name].table
        assert list(result.plot_tables) == ([table] if table else []), name
        if table:
            assert [block["run_id"] for block in result.plot_tables[table]] == ids, name
        for row in result.report["runs"]:
            assert row["status"] == result.trajectories[row["run_id"]].status, name


def test_two_runs_with_one_id_are_a_program_bug(monkeypatch):
    def twice(config, opt, landscape):
        runs, report = harness.run_custom(config, opt, landscape)
        return runs + runs, report

    monkeypatch.setitem(REGISTRY, "Custom", replace(REGISTRY["Custom"], run=twice))
    with pytest.raises(AssertionError, match="share a run id"):
        run_experiment(small_custom_config())


# ----------------------------------------------------------------- emission


def test_emit_layout(tmp_path):
    result = run_experiment(default_config_for("Thm2Divergence"))
    paths = emit(result, str(tmp_path))
    root = tmp_path / "Thm2Divergence"
    assert (root / "report.json").exists()
    assert (root / "iterates.csv").exists()
    for mult in ("1.0", "1.05", "2.0"):
        rd = root / f"eta_mult={mult}"
        assert (rd / "trajectory.csv").exists()
        assert (rd / "summary.json").exists()
    assert all(os.path.exists(p) for p in paths)
    report = json.loads((root / "report.json").read_text())
    assert report["conclusions"]["all_ok"] is True
    assert report["config"]["out_dir"] is None


def test_version_has_one_source(tmp_path):
    # pyproject reads the version from the package, and reports echo it
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert "version" in project["dynamic"]
    assert "version" not in project
    emit(run_experiment(small_custom_config()), str(tmp_path))
    report = json.loads((tmp_path / "Custom" / "report.json").read_text())
    assert report["environment"]["version"] == adamlab.__version__


def test_emit_json_format_tables(tmp_path):
    cfg = default_config_for("Thm2Divergence")
    cfg.format = "json"
    result = run_experiment(cfg)
    emit(result, str(tmp_path))
    assert (tmp_path / "Thm2Divergence" / "iterates.json").exists()


def test_emitted_bytes_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit(run_experiment(default_config_for("Thm2Divergence")), str(a))
    emit(run_experiment(default_config_for("Thm2Divergence")), str(b))
    da, db = tree_digest(a), tree_digest(b)
    assert da == db
    assert len(da) > 0


def test_report_invariant_under_sweep_permutation():
    base = merge_config(default_config_for("Fig3"), {"T": 30})
    permuted = merge_config(
        default_config_for("Fig3"),
        {"T": 30, "seeds": [3, 1, 2], "options": {"beta2_grid": [0.999, 0.9, 0.99]}},
    )
    ra = run_experiment(base).report
    rb = run_experiment(permuted).report
    # the config echo records the permuted input; results must not
    ra_cfg = ra.pop("config")
    rb_cfg = rb.pop("config")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert ra_cfg["seeds"] != rb_cfg["seeds"]


# ---------------------------------------------------------------------- cli


def test_cli_thm2_diverge_exit_zero(tmp_path, capsys):
    rc = cli_main(["thm2-diverge", "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all_ok: True" in out
    assert (tmp_path / "o" / "Thm2Divergence" / "report.json").exists()


def test_cli_failed_assertion_exit_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 200, "options": {"grad_floor": 1e9}}))
    rc = cli_main(
        ["fig3", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "assertion failure" in captured.err


def test_cli_config_error_exit_two(tmp_path, capsys, monkeypatch):
    # every case below is refused before any run starts
    def no_run(*args, **kwargs):
        pytest.fail("a run started")

    monkeypatch.setattr(harness, "adam_run", no_run)
    monkeypatch.setattr(harness, "gd_run", no_run)
    # custom without an objective cannot run
    rc = cli_main(["custom", "--out", str(tmp_path / "o")])
    assert rc == 2
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli_main(["thm2-diverge", "--config", str(bad)])
    assert rc == 2
    # experiment mismatch between config and subcommand
    mismatched = tmp_path / "mm.json"
    mismatched.write_text(json.dumps({"experiment": "Fig3"}))
    rc = cli_main(["thm2-diverge", "--config", str(mismatched)])
    assert rc == 2
    # negative seed
    rc = cli_main(["thm2-diverge", "--seed", "-4"])
    assert rc == 2
    capsys.readouterr()
    # mistyped or unknown keys, bools included, and configs the experiment
    # cannot take: each is reported as a config error, without a traceback
    # and without an output tree
    quad = to_spec(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]]))
    zhang = to_spec(zhang_counterexample())
    lowerbound = to_spec(lowerbound_objective(1.0, 1.0, 0.5))
    del lowerbound["parameters"]["epsilon"]
    mistyped = tmp_path / "mistyped.json"
    for command, overrides in (
        *(("fig3", o) for o in (
            {"T": 10.5}, {"seeds": [1.5]}, {"seeds": 3}, {"seeds": ["a"]}, {"T": True},
            {"seeds": [True]}, {"options": 3}, {"objective": 5}, {"out_dir": 5},
            {"options": {"beta2_grid": []}}, {"options": {"beta2_grd": [0.5]}},
            {"options": {"beta1": "x"}}, {"options": {"grad_floor": True}}, {"Tee": 5},
            {"objective": None}, {"objective": {**zhang, "parameters": {"scale": "a"}}},
        )),
        ("thm2-diverge", {"options": {"steps": "5"}}),
        ("thm2-diverge", {"options": {"eta_multipliers": 2.0}}),
        ("thm2-diverge", {"options": {"construction": {"L2": 1.0}}}),
        ("thm2-diverge", {"objective": zhang}),
        ("thm2-slow", {"objective": zhang}),
        ("thm2-slow", {"options": {"complete_multipliers": [0.3]}}),
        ("compare", {"objective": zhang}),
        ("custom", {"objective": quad, "options": {"adam": {"beta": 0.9}}}),
        ("custom", {"objective": quad, "options": {"record_steps": 1}}),
        ("custom", {"objective": quad, "options": {"algo": "sgd"}}),
        ("custom", {"objective": lowerbound}),
        # experiments that would run nothing on an axis and pass
        ("compare", {"options": {"gd_eta_multipliers": []}}),
        ("thm2-slow", {"options": {"eta_multipliers": [], "complete_multipliers": []}}),
        ("thm2-diverge", {"options": {"eta_multipliers": []}}),
        *(("lemmas", {"options": o}) for o in (
            {"beta1_grid": []}, {"beta2_grid": []}, {"eta1_grid": []}, {"schedules": []},
            {"beta1_grid": [0.999], "beta2_grid": [0.99]},
        )),
        # clipped GD without a threshold would run plain GD
        ("custom", {"objective": quad, "options": {"algo": "clipped_gd"}}),
        ("custom", {"objective": quad, "options": {"algo": "clipped_gd", "gd": {"eta1": 0.1}}}),
        # and plain GD with one would drop it
        ("custom", {"objective": quad, "options": {"algo": "gd", "gd": {"clip_threshold": 1.0}}}),
        # start points the objective cannot take
        ("lemmas", {"options": {"x0": [1.0, 2.0]}}),
        ("lemmas", {"options": {"x0": [math.nan]}}),
        ("lemmas", {"options": {"x0": [10**400]}}),
        # a repeated seed or axis value would run again, under one run id or
        # two (2 and 2.0 are one value)
        ("fig3", {"T": 50, "seeds": [1, 1]}),
        ("fig3", {"T": 50, "seeds": [1], "options": {"beta2_grid": [0.9, 0.99, 0.99]}}),
        ("thm2-diverge", {"options": {"eta_multipliers": [2.0, 2.0, 2.0, 2.0]}}),
        ("thm2-diverge", {"options": {"eta_multipliers": [2, 2.0]}}),
        ("thm2-slow", {"options": {"eta_multipliers": [0.1, 0.5, 0.5], "steps": 50}}),
        ("compare", {"options": {"gd_eta_multipliers": [1, 1.0], "gd_steps": 50, "adam": {"epochs": 5}}}),
        *(("lemmas", {"T": 5, "options": o}) for o in (
            {"beta1_grid": [0.0, 0.0]}, {"beta2_grid": [0.99, 0.99]}, {"eta1_grid": [0.1, 0.1]},
            {"schedules": ["Constant", "Constant"]},
        )),
        ("custom", {"objective": quad, "seeds": [1, 1], "T": 5}),
        # experiments that run one seed, given more than one
        ("lemmas", {"T": 5, "seeds": [3, 1]}),
        ("compare", {"seeds": [7, 2], "options": {"gd_steps": 50, "adam": {"epochs": 5}}}),
        ("thm2-diverge", {"seeds": [0, 1]}),
        ("thm2-slow", {"seeds": [0, 1], "options": {"steps": 50}}),
        # a mistyped schedule or init mode
        *(("fig3", {"T": 5, "seeds": [1], "options": o}) for o in (
            {"schedule": "constant"}, {"init_mode": "zero"},
        )),
        ("compare", {"options": {"gd_steps": 50, "adam": {"schedule": "constant"}}}),
        ("lemmas", {"T": 5, "options": {"schedules": ["Diminishing", "constant"]}}),
        ("lemmas", {"T": 5, "options": {"init_mode": "Paper"}}),
        ("custom", {"objective": quad, "T": 5, "options": {"adam": {"init_mode": "zero"}}}),
        ("custom", {"objective": quad, "T": 5, "options": {"algo": "gd", "gd": {"schedule": "diminishing"}}}),
    ):
        mistyped.write_text(json.dumps(overrides))
        rc = cli_main([command, "--config", str(mistyped), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2, (command, overrides)
        assert err.startswith("config error: ") and "Traceback" not in err, err
    # a value outside its range, NaN and infinity included (json.load takes
    # them): refused at load, on a line that names the key
    nan_centers = {**quad, "parameters": {**quad["parameters"], "centers": [[-1.0], [math.nan]]}}
    for command, overrides, key in (
        ("fig3", {"options": {"beta2_grid": [0.9, 0.99, 1.5]}}, "options.beta2_grid[2]"),
        ("compare", {"options": {"adam": {"beta1": 1.0}}}, "options.adam.beta1"),
        ("lemmas", {"options": {"beta2_grid": [0.99, 1.5]}}, "options.beta2_grid[1]"),
        ("thm2-diverge", {"options": {"growth_tol": math.inf}}, "options.growth_tol"),
        ("thm2-diverge", {"options": {"growth_tol": math.nan}}, "options.growth_tol"),
        ("fig3", {"options": {"tail_frac": math.nan}}, "options.tail_frac"),
        # int(len(norms) * 1e308) used to end the run in an OverflowError
        ("fig3", {"T": 20, "seeds": [1], "options": {"beta2_grid": [0.9], "tail_frac": 1e308}}, "options.tail_frac"),
        ("fig3", {"options": {"grad_floor": math.nan}}, "options.grad_floor"),
        ("custom", {"objective": nan_centers}, "objective.parameters.centers[1][0]"),
        ("custom", {"objective": {**quad, "parameters": {**quad["parameters"], "curvatures": [2.0, -1.0]}}},
         "objective.parameters.curvatures[1]"),
        ("thm2-diverge", {"options": {"steps": -1}}, "options.steps"),
        # experiments that would take no step and pass
        ("compare", {"options": {"gd_steps": 0}}, "options.gd_steps"),
        ("thm2-slow", {"options": {"steps": 0}}, "options.steps"),
        ("lemmas", {"T": 0}, "T"),
        # a run of no step used to complete and pass (custom) or fail a claim (the rest)
        ("custom", {"objective": quad, "T": 0}, "T"),
        ("fig3", {"T": 0}, "T"),
        ("thm2-diverge", {"options": {"steps": 0}}, "options.steps"),
        ("compare", {"options": {"adam": {"epochs": 0}}}, "options.adam.epochs"),
        ("thm2-diverge", {"options": {"construction": {"M": -1}}}, "options.construction.M"),
        ("compare", {"options": {"adam": {"epochs": -1}}}, "options.adam.epochs"),
        ("custom", {"objective": quad, "options": {"algo": "gd", "gd": {"eta1": 0}}}, "options.gd.eta1"),
        ("custom", {"objective": quad, "options": {"algo": "clipped_gd", "gd": {"clip_threshold": -1}}},
         "options.gd.clip_threshold"),
    ):
        mistyped.write_text(json.dumps(overrides))
        rc = cli_main([command, "--config", str(mistyped), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2, (command, overrides)
        assert err.startswith(f"config error: {key}: expected ") and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


_TINY_L1 = {"kind": "LowerBound", "parameters": {"L0": 1.0, "L1": 1e-170, "epsilon": 1.0}}


def _quad(curvatures, centers, **spec):
    return {"objective": {"kind": "QuadraticSum", "parameters": {"curvatures": curvatures, "centers": centers}, **spec}}


@pytest.mark.parametrize("command, overrides, message", [
    # 1e-170 squared underflows to 0.0, and LowerBound divides by L1 * L1
    ("custom", {"objective": _TINY_L1},
     "objective.parameters.L1: expected a number in [1.4916681462400413e-154, inf), got 1e-170"),
    # log(q) + 1 < 0 below the floor, where epsilon would be sqrt of a negative
    ("thm2-slow", {"options": {"construction": {"L1": 0.002}}},
     "options.construction: construction constraints failed: ['m_above_floor']"),
    # epsilon underflows to 0.0, and y0 divides by it
    ("thm2-slow", {"options": {"construction": {"f_bar": 5e-324}}},
     "options.construction: epsilon: expected a number in (0.0, inf), got 0.0"),
    # a spec the builder or loader refuses names its key
    ("custom", _quad([1.0, 2.0], [[0.0], [1.0, 2.0]]),
     "objective.parameters.centers: expected points of one dimension d >= 1, got dimensions [1, 2]"),
    ("custom", _quad([], []), "objective.parameters.curvatures: expected a nonempty list, got []"),
    ("custom", _quad([1.0], [[]]),
     "objective.parameters.centers: expected points of one dimension d >= 1, got dimensions [0]"),
    ("custom", {"objective": {"kind": "ZhangCounterexample", "parameters": {"scale": 0}}},
     "objective.parameters.scale: expected a finite nonzero number, got 0"),
    ("custom", {"objective": {"kind": "nope", "parameters": {}}},
     "objective.kind: expected one of 'ZhangCounterexample', 'LowerBound', 'QuadraticSum', got 'nope'"),
    ("custom", _quad([2.0], [[0.0]], n=2), "objective.n: expected 1 (this QuadraticSum's n), got 2"),
    ("custom", {"objective": {"kind": "ZhangCounterexample", "d": 2, "parameters": {}}},
     "objective.d: expected 1 (this ZhangCounterexample's d), got 2"),
    # a closed end is printed closed
    ("fig3", {"options": {"tail_frac": 1e308}}, "options.tail_frac: expected a number in (0.0, 1.0], got 1e+308"),
    # y0 overflows; it used to be refused by gd_run as a "non-finite point"
    ("thm2-slow", {"options": {"construction": {"L0": 5e-324, "L1": 1.5e-154, "M": 0.5, "f_bar": 1.5e-154}}},
     "options.construction: y0: expected a finite number, got inf"),
    # eta_star overflows; it used to be blamed on options.eta_multipliers[0]
    ("thm2-slow", {"options": {"construction": {"L0": 5e-324, "L1": 1.5e-154, "M": 1.5e-154, "f_bar": 1e-10}}},
     "options.construction: eta_star: expected a finite number, got inf"),
    # the construction's own horizon must be at least one step
    ("thm2-diverge", {"T": 0}, "T: expected an integer in [1, 9223372036854775808), got 0"),
    # inf f is -inf for a negative scale, and f_gap needs a finite one
    ("lemmas", {"objective": {"kind": "ZhangCounterexample", "parameters": {"scale": -1}}},
     "objective: this ZhangCounterexample has no known minimum, which the value gap f_gap needs"),
])
def test_cli_degenerate_landscape_is_a_named_config_error(command, overrides, message, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(overrides))
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fig3", "lemmas", "custom"])
def test_missing_objective_is_refused_at_load(command, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"objective": None}))
    args = build_parser().parse_args([command, "--config", str(cfg)])
    with pytest.raises(ValueError, match="^objective: .* needs an objective$"):
        load_config(command, args)


@pytest.mark.parametrize("command", ["fig3", "lemmas", "custom"])
def test_start_point_of_the_wrong_dimension_is_refused_at_load(command, tmp_path, capsys):
    overrides = {"options": {"x0": [1.0, 2.0]}}  # every objective below has d = 1
    if command == "custom":
        overrides["objective"] = to_spec(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]]))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(overrides))
    args = build_parser().parse_args([command, "--config", str(cfg)])
    with pytest.raises(ValueError, match=r"^options\.x0: "):
        load_config(command, args)
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: options.x0: expected 1 coordinates (the objective's d), got 2\n"
    assert not (tmp_path / "o").exists()


def test_cli_lemma_suite_starting_at_the_minimizer_runs(tmp_path, capsys):
    # f(0) rounds below the closed-form minimum -1/90; the value gap is 0.0,
    # where it used to be refused as a negative f_gap
    assert zhang_counterexample().value([0.0]) < zhang_counterexample().known_min
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"x0": [0.0]}, "T": 3}))
    assert cli_main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "LemmaSuite" / "report.json").read_text())
    assert report["problem_constants"]["f_gap"] == 0.0


def test_each_run_builds_its_landscape_once(monkeypatch, tmp_path):
    # validate is the one build site: load_config builds the landscape once,
    # and run_experiment once more, with no build inside a runner; the
    # registry's default objective is a spec, which builds nothing
    builds, objects = [], []

    def counted(builder):
        @functools.wraps(builder)
        def wrapper(*args, **kwargs):
            builds.append(builder.__name__)
            return builder(*args, **kwargs)
        return wrapper

    for kind, builder in list(_LOADABLE.items()):
        monkeypatch.setitem(_LOADABLE, kind, counted(builder))
    monkeypatch.setattr(harness, "make_lowerbound", counted(harness.make_lowerbound))
    post_init = FiniteSumObjective.__post_init__

    def counted_post_init(self):
        objects.append(self.kind)
        post_init(self)

    monkeypatch.setattr(FiniteSumObjective, "__post_init__", counted_post_init)
    for name, overrides in SMALL_CONFIGS.items():
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(overrides))
        command = REGISTRY[name].command
        builds.clear()
        objects.clear()
        config = load_config(command, build_parser().parse_args([command, "--config", str(cfg)]))
        assert len(builds) == 1 and len(objects) == 1, (name, builds, objects)
        builds.clear()
        objects.clear()
        run_experiment(config)
        assert len(builds) == 1 and len(objects) == 1, (name, builds, objects)


def _floats_in(hint):
    """Every float a range-typed field accepts."""
    _, r = typing.get_args(hint)
    return st.floats(
        min_value=r.lo, max_value=None if r.hi == math.inf else r.hi, exclude_min=r.lo_open,
        exclude_max=r.hi_open and r.hi < math.inf, allow_nan=False, allow_infinity=False,
    )


@given(
    st.sampled_from(["Thm2Divergence", "Thm2Slow", "AdamVsGd"]),
    st.fixed_dictionaries({name: _floats_in(hint) for name, (hint, _) in fields_of(harness.Construction).items()}),
    st.integers(1, 2**63 - 1),
)
@settings(max_examples=300, deadline=None)
def test_a_construction_loads_as_a_usable_landscape_or_is_refused_naming_its_key(name, construction, T):
    def no_run(*args, **kwargs):
        pytest.fail("a run started")

    config = merge_config(default_config_for(name), {"T": T, "options": {"construction": construction}})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "adam_run", no_run)
        mp.setattr(harness, "gd_run", no_run)
        try:
            _, (_, w0, con) = config.validate()
        except ValueError as exc:
            assert str(exc).startswith(("options.construction: ", "T: ")), exc
            return
    assert all(map(math.isfinite, w0)) and 0.0 < con.eta_star < math.inf


def test_cli_count_beyond_int64_is_a_config_error(tmp_path, capsys):
    # the construction's math.sqrt(T) cannot convert such a T to a float
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"T": 10**400}))
    assert cli_main(["thm2-diverge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: T: expected an integer in [1, 9223372036854775808), got 1000"), err
    assert not (tmp_path / "o").exists()


def test_cli_eta1_with_an_overflowing_cube_is_a_config_error(tmp_path, capsys):
    # compute_constants takes eta1 ** 3, which raises OverflowError past
    # about 5.6e102; refused at load, before any run
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"T": 30, "options": {"eta1_grid": [0.1, 1e120]}}))
    assert cli_main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: options.eta1_grid[1]: expected a number in (0.0, 5.6438"), err
    assert err.rstrip().endswith("got 1e+120"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, message", [
    # (1 - 0.5) * 5e-324 rounds to 0.0, which C8 divides by
    ({"options": {"eta1_grid": [5e-324]}, "T": 1},
     "options.eta1_grid[0]: (1 - beta1) * eta1 is 0.0 at beta1 0.5 and eta1 5e-324, and C8 divides by it"),
    # at n = 1, sqrt(beta2) rounds to 1.0 and 1 - sqrt(beta2**n) to 0.0
    ({"objective": {"kind": "QuadraticSum", "parameters": {"curvatures": [1.0], "centers": [[0.0]]}},
      "options": {"beta2_grid": [0.99, 0.9999999999999999]}, "T": 1},
     "options.beta2_grid[1]: 1 - sqrt(beta2**n) is 0.0 at beta2 0.9999999999999999 and n 1,"
     " and C5, C6 and C7 divide by it"),
], ids=["eta1", "beta2"])
def test_cli_lemma_grid_value_with_a_zero_denominator_is_refused_before_any_run(
    overrides, message, monkeypatch, tmp_path, capsys
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_cells", no_run)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(overrides))
    assert cli_main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def _axis_item(hint):
    """X if ``hint`` is ``Axis(X)``, else None."""
    if typing.get_origin(hint) is typing.Annotated and typing.get_origin(typing.get_args(hint)[0]) is list:
        [item] = typing.get_args(typing.get_args(hint)[0])
        return item if hint == Axis(item) else None
    return None


def _range_cases(cls, path="options"):
    """(overrides, path) for each value just outside the range of each
    range-typed field of an options record or parameter of a landscape
    builder, nested records and list entries included."""
    for name, (hint, _) in fields_of(cls).items():
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            [hint] = [a for a in typing.get_args(hint) if a is not type(None)]
        if dataclasses.is_dataclass(hint):
            for inner, where in _range_cases(hint, f"{path}.{name}"):
                yield {name: inner}, where
            continue
        if _axis_item(hint) is not None:
            hint = list[_axis_item(hint)]
        listed = typing.get_origin(hint) is list
        if listed:
            hint = typing.get_args(hint)[0]
        if typing.get_origin(hint) is not typing.Annotated:
            continue
        base, allowed = typing.get_args(hint)
        below = math.nextafter(allowed.lo, -math.inf) if base is float else allowed.lo - 1
        above = math.nextafter(allowed.hi, math.inf) if base is float else allowed.hi + 1
        outside = [allowed.lo if allowed.lo_open else below]
        if math.isfinite(allowed.hi):
            outside.append(allowed.hi if allowed.hi_open else above)
        for bad in outside:
            yield {name: [bad] if listed else bad}, f"{path}.{name}" + ("[0]" if listed else "")


def test_every_range_typed_option_is_refused_just_outside_its_range():
    paths = set()
    for name, exp in REGISTRY.items():
        for options, path in _range_cases(exp.Options):
            config = merge_config(default_config_for(name), {"options": options})
            with pytest.raises(ValueError, match=f"^{re.escape(path)}: expected "):
                config.validate()
            paths.add((name, path))
    assert {("Fig3", "options.beta2_grid[0]"), ("AdamVsGd", "options.adam.epochs"),
            ("Custom", "options.gd.clip_threshold"), ("Thm2Slow", "options.construction.M"),
            ("Fig3", "options.tail_frac")} <= paths
    # each loadable objective kind's parameters, from a valid spec of the kind
    for spec in (
        to_spec(zhang_counterexample()), to_spec(lowerbound_objective(1.0, 1.0, 0.5)), to_spec(quadratic_sum([2.0], [[0.0]])),
    ):
        for parameters, path in _range_cases(_LOADABLE[spec["kind"]], "objective.parameters"):
            with pytest.raises(ValueError, match=f"^{re.escape(path)}: expected "):
                from_spec({**spec, "parameters": {**spec["parameters"], **parameters}})
            paths.add((spec["kind"], path))
    assert {("LowerBound", f"objective.parameters.{name}") for name in ("L0", "L1", "epsilon")} <= paths
    assert ("QuadraticSum", "objective.parameters.curvatures[0]") in paths


def _axis_cases(cls, path="options"):
    """(overrides, path) for two refused values of each ``Axis`` field of an
    options record, nested records included: the empty list, and the default
    list's first value given twice (an integral float first as an int)."""
    defaults = cls()
    for name, (hint, _) in fields_of(cls).items():
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            [hint] = [a for a in typing.get_args(hint) if a is not type(None)]
        if dataclasses.is_dataclass(hint):
            for inner, where in _axis_cases(hint, f"{path}.{name}"):
                yield {name: inner}, where
        elif _axis_item(hint) is not None:
            first = getattr(defaults, name)[0]
            again = int(first) if isinstance(first, float) and first.is_integer() else first
            for bad in ([], [again, first]):
                yield {name: bad}, f"{path}.{name}"


def test_every_axis_option_is_refused_empty_or_repeated():
    paths = set()
    for name, exp in REGISTRY.items():
        default = default_config_for(name)
        cases = [(replace(default, seeds=seeds), "seeds") for seeds in ([], [default.seeds[0]] * 2)]
        cases += [(merge_config(default, {"options": o}), path) for o, path in _axis_cases(exp.Options)]
        for config, path in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(path)}: expected a non-empty list with no repeated"):
                config.validate()
            paths.add((name, path))
    assert {("Fig3", "options.beta2_grid"), ("Thm2Divergence", "options.eta_multipliers"),
            ("Thm2Slow", "options.eta_multipliers"), ("AdamVsGd", "options.gd_eta_multipliers"),
            *(("LemmaSuite", f"options.{g}") for g in ("beta1_grid", "beta2_grid", "eta1_grid", "schedules")),
            *((name, "seeds") for name in REGISTRY)} <= paths


def test_each_experiment_has_its_own_runner():
    # a runner shared by two records would have to branch on the experiment
    assert len({exp.run for exp in REGISTRY.values()}) == len(REGISTRY)
    for exp in REGISTRY.values():
        assert "config.experiment" not in inspect.getsource(exp.run), exp.name
        assert "config.objective" not in inspect.getsource(exp.run), exp.name


def test_mistyped_schedule_or_init_mode_fails_at_load():
    # refused when the config is loaded, before any run starts
    for name, options in (
        ("Fig3", {"schedule": "constant"}),
        ("AdamVsGd", {"adam": {"schedule": "constant"}}),
        ("LemmaSuite", {"schedules": ["constant"]}),
        ("Custom", {"gd": {"schedule": "Constnat"}}),
        ("Custom", {"adam": {"init_mode": "zero"}}),
    ):
        with pytest.raises(ValueError, match="expected one of"):
            merge_config(default_config_for(name), {"options": options}).validate()


def test_cli_bug_inside_a_run_keeps_its_traceback(monkeypatch, tmp_path):
    # only config errors exit 2; a KeyError raised by the program propagates
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(harness, "gd_run", broken)
    with pytest.raises(KeyError):
        cli_main(["thm2-diverge", "--out", str(tmp_path / "o")])


def test_nested_options_fill_from_defaults_and_keep_ints():
    cfg = merge_config(
        default_config_for("AdamVsGd"),
        {"options": {"gd_eta_multipliers": [2], "adam": {"epochs": 40}}},
    )
    opt, _ = cfg.validate()
    assert opt.adam.epochs == 40 and opt.adam.eta1 == 0.5 and opt.adam.beta2 == 0.999
    assert opt.gd_eta_multipliers == [2] and type(opt.gd_eta_multipliers[0]) is int
    # the echo is the merged input, not the filled record
    assert asdict(cfg)["options"]["adam"] == {"epochs": 40}
    # Custom's Adam defaults are AdamArm's, whose fields a run's AdamParams
    # declares no second time
    custom, _ = small_custom_config().validate()
    assert custom.adam == AdamArm()
    run_fields = ["epochs", "seed", "run_index", "record_steps"]
    assert [f.name for f in fields(AdamParams)] == [f.name for f in fields(AdamArm)] + run_fields


def test_benchmark_subcommands_are_registered(tmp_path):
    # perfbench/workloads.py names experiments by subcommand; every pair it
    # holds must be in the registry, and every config it generates must load
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for command, name in workloads.SUBCOMMAND_EXPERIMENT.items():
        assert REGISTRY[name].command == command
    for workload in workloads.WORKLOADS:
        for seed in range(1, 33):
            for command, overrides in workloads.configs(workload, seed):
                config_path = tmp_path / "config.json"
                config_path.write_text(json.dumps(overrides))
                args = build_parser().parse_args([command, "--config", str(config_path)])
                assert load_config(command, args).experiment == workloads.SUBCOMMAND_EXPERIMENT[command]


def test_cli_overflowing_start_point_is_a_config_error(monkeypatch, tmp_path, capsys):
    # f(x0) overflows to inf on the quadratic, and sums +inf and -inf
    # components (nan) on the default landscape; the bound's value gap needs
    # it finite. Both used to be refused after the envelope fit, naming f_gap.
    def no_run(*args, **kwargs):
        raise AssertionError("adam_run called")

    monkeypatch.setattr(harness, "adam_run", no_run)
    cfg = tmp_path / "cfg.json"
    objective = to_spec(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]]))
    grid = {"beta1_grid": [0.0], "beta2_grid": [0.99], "eta1_grid": [0.1], "schedules": ["Constant"]}
    for overrides, value in (
        ({"objective": objective, "options": {"x0": [1e200]}}, "inf"),
        ({"T": 3, "options": {"x0": [1e200], **grid}}, "nan"),
    ):
        cfg.write_text(json.dumps(overrides))
        rc = cli_main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"config error: options.x0: the objective's value there is {value}, not a finite number\n"


_FAST_THRESHOLD = {"L0": 1e-10, "L1": 1.0, "M": 1.0, "f_bar": 199.0}  # eta_star is about 112.7


@pytest.mark.parametrize("command, overrides, message", [
    # the second multiplier's step size overflows to inf; it used to be
    # refused by gd_run, after the first run, on a line naming eta1
    ("thm2-diverge", {"options": {"construction": _FAST_THRESHOLD, "eta_multipliers": [1.0, 1e307], "steps": 5}},
     "options.eta_multipliers[1]: 1e+307 * eta_star 112.66025967178439 is inf, not a positive finite step size"),
    ("compare", {"options": {"construction": _FAST_THRESHOLD, "gd_eta_multipliers": [1.0, 1e307], "gd_steps": 5,
                             "adam": {"epochs": 5}}},
     "options.gd_eta_multipliers[1]: 1e+307 * eta_star 112.66025967178439 is inf, not a positive finite step size"),
], ids=["thm2-diverge", "compare"])
def test_cli_gd_step_size_past_the_float_range_is_refused_before_any_run(
    command, overrides, message, monkeypatch, tmp_path, capsys
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "gd_run", no_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("curvatures, centers, key, cause", [
    # each sum of two finite terms passes the largest float
    ([1.0, 1.0], [[1.7e308], [1.7e308]], "centers", "intermediate overflow in fsum"),
    ([1.7e308, 1.7e308], [[-1.0], [3.0]], "curvatures", "intermediate overflow in fsum"),
    # the curvature-center products round to inf and -inf
    ([1e300, 1e300], [[1e200], [-1e200]], "centers", "-inf + inf in fsum"),
])
def test_cli_quadratic_sum_out_of_float_range_is_a_config_error(curvatures, centers, key, cause, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    objective = {"kind": "QuadraticSum", "parameters": {"curvatures": curvatures, "centers": centers}}
    cfg.write_text(json.dumps({"objective": objective, "options": {"algo": "adam", "x0": [0.0]}}))
    assert cli_main(["custom", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: objective.parameters.{key}: a sum built from these values leaves the float range ({cause})\n"
    )
    assert not (tmp_path / "o").exists()


def test_cli_unusable_out_is_a_config_error(monkeypatch, tmp_path, capsys):
    # the output root is checked before any run, and nothing is created
    def never(config):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", never)
    (tmp_path / "file").write_text("")
    for under in ((), ("o",), ("o", "p")):
        out = tmp_path.joinpath("file", *under)
        assert cli_main(["thm2-diverge", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # one line, naming the path, and no traceback
        assert err.startswith("config error: ") and err.count("\n") == 1 and str(out) in err, err
    assert os.listdir(tmp_path) == ["file"]


def _cli_custom(tmp_path, objective, **options):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"objective": {"kind": "QuadraticSum", "parameters": objective},
                               "T": options.pop("T"), "options": options}))
    return cli_main(["custom", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_cli_tail_mean_past_the_float_range_completes(tmp_path, capsys):
    # each epoch-start norm is 1.7e308, so their sum passes the largest float:
    # the tail mean is the IEEE sum's inf / count
    objective = {"curvatures": [1.7e308], "centers": [[0.0]]}
    assert _cli_custom(tmp_path, objective, T=100, algo="gd", x0=[1.0],
                       gd={"eta1": 1e-320, "schedule": "Constant"}) == 0
    summary = json.loads((tmp_path / "o" / "Custom" / "gd-seed=1" / "summary.json").read_text())
    assert summary["status"] == "Completed" and summary["tail_mean_grad_norm"] == math.inf


def test_cli_value_past_the_float_range_is_an_assertion_failure(tmp_path, capsys):
    # each squared coordinate is finite and their sum is not: the value is inf
    # and the run diverges, which fails require_completed
    objective = {"curvatures": [1.0, 1.0], "centers": [[0.0, 0.0], [0.0, 0.0]]}
    assert _cli_custom(tmp_path, objective, T=3, algo="adam", x0=[1.3e154, 1.3e154]) == 1
    assert capsys.readouterr().err == "assertion failure: see report.json conclusions\n"


def test_cli_integer_eta1_past_int64_runs(tmp_path):
    # the step-size column is float64 whatever the type of eta1
    objective = {"curvatures": [1.0], "centers": [[0.0]]}
    assert _cli_custom(tmp_path, objective, T=3, algo="adam", x0=[1.0], record_steps=True,
                       adam={"schedule": "Constant", "eta1": 10 ** 29}) == 0


def test_cli_noise_pair_past_the_float_range_is_a_config_error(tmp_path, capsys):
    # |grad f|^2 at the envelope's sample points overflows to inf: the fit's
    # D0 is inf, refused on a line that names the objective, not a parameter
    cfg = tmp_path / "cfg.json"
    for overrides in (
        {"objective": {"kind": "QuadraticSum", "parameters": {"curvatures": [1e154], "centers": [[0.0, 0.0]]}},
         "options": {"x0": [0, 0]}},
        {"objective": {"kind": "ZhangCounterexample", "parameters": {"scale": 1e200}}},
    ):
        cfg.write_text(json.dumps({**overrides, "T": 3}))
        assert cli_main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: objective: its noise envelope (affine_noise_fit) leaves the float range: D0 inf, D1 0.0\n"
        )
        assert not (tmp_path / "o").exists()


def test_cli_beta2_whose_power_underflows_runs(tmp_path, capsys):
    # beta2 ** n is 0.0 for beta2 = 1e-40 and n = 10: g is infinite (memory
    # too short), not a ZeroDivisionError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 3, "options": {
        "beta1_grid": [0.0], "beta2_grid": [1e-40], "eta1_grid": [0.1], "schedules": ["Constant"],
    }}))
    assert cli_main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "LemmaSuite" / "report.json").read_text())
    assert report["runs"][0]["beta2"] == 1e-40 and report["conclusions"]["all_ok"]


def test_cli_beta1_without_a_beta2_threshold_is_refused_before_gd(monkeypatch, tmp_path, capsys):
    # gamma_threshold finds no root for this beta1; the comparison refuses it
    # before its GD runs, naming the key
    def never(*args, **kwargs):
        raise AssertionError("gd_run called")

    monkeypatch.setattr(harness, "gd_run", never)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"options": {"adam": {"beta1": 0.9999999999999999, "epochs": 5}, "gd_steps": 50}}))
    assert cli_main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: options.adam.beta1: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o").exists()


def test_cli_seed_replaces_seed_list(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 10, "seeds": [5, 6, 7]}))
    rc = cli_main(["fig3", "--config", str(cfg), "--seed", "9", "--out", str(tmp_path / "o")])
    assert rc in (0, 1)  # tiny T may fail the scientific assertions
    report = json.loads((tmp_path / "o" / "Fig3" / "report.json").read_text())
    assert report["config"]["seeds"] == [9]
    assert {r["seed"] for r in report["runs"]} == {9}


def test_cli_rerun_replaces_the_experiment_tree(tmp_path, capsys):
    # a smaller grid rerun into the same --out must not leave the larger
    # run's directories looking current
    def fig3(seeds, out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 20, "seeds": seeds}))
        assert cli_main(["fig3", "--config", str(cfg), "--out", str(out)]) in (0, 1)

    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    fig3([1, 2, 3], shared)
    (shared / "notes.txt").write_text("kept")
    fig3([1], shared)
    fig3([1], fresh)
    assert tree_digest(shared / "Fig3") == tree_digest(fresh / "Fig3")
    assert sorted(os.listdir(shared / "Fig3")) == sorted(os.listdir(fresh / "Fig3"))
    # only <out>/Fig3 is replaced; no work directory is left behind
    assert sorted(os.listdir(shared)) == ["Fig3", "notes.txt"]
    capsys.readouterr()


def test_emit_returns_the_final_paths(tmp_path):
    result = run_experiment(small_custom_config())
    paths = emit(result, str(tmp_path))
    root = tmp_path / "Custom"
    assert sorted(paths) == sorted(str(root / rel) for rel in tree_digest(root))
