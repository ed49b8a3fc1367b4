import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import adamlab
from adamlab import harness
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
from adamlab.landscapes import lowerbound_objective, quadratic_sum, to_spec, zhang_counterexample
from adamlab.optimizers import AdamParams
from adamlab.schema import fields_of


def small_custom_config(**options):
    opts = {"algo": "adam", "x0": [4.0], "record_steps": False}
    opts.update(options)
    return ExperimentConfig(
        experiment="Custom",
        objective=to_spec(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]], known_D0_D1=(16.0, 1.0))),
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
    back = merge_config(ExperimentConfig(experiment=cfg.experiment), cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


def test_all_default_configs_validate():
    for name in REGISTRY:
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
    for algo in ("gd", "clipped_gd"):
        cfg = small_custom_config(algo=algo, gd={"eta1": 0.1, "clip_threshold": 1.0})
        result = run_experiment(cfg)
        assert result.ok
        [rid] = list(result.trajectories)
        assert result.trajectories[rid].algo == algo


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


def test_horizon_scan_skips_a_later_nan_as_python_min_does(monkeypatch):
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
    cfg = merge_config(default_config_for("Thm2Slow"), {"options": {"steps": 400}})
    result = run_experiment(cfg)
    for run in result.report["runs"]:
        norms = result.trajectories[run["run_id"]].epochs.grad_norm.tolist()
        assert run["checked_before_horizon"] == len(norms) >= 3
        assert run["min_grad_before_horizon"] == min(norms[:1] + norms[2:])
        assert run["floor_ok"] is True


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
    "Custom": small_custom_config(algo="gd", gd={"eta1": 0.1}).to_dict() | {"seeds": [3, 1]},
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
    def twice(config, opt):
        runs, report = harness.run_custom(config, opt)
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
        ("fig3", {"options": {"grad_floor": math.nan}}, "options.grad_floor"),
        ("custom", {"objective": nan_centers}, "objective.parameters.centers[1][0]"),
        ("custom", {"objective": {**quad, "parameters": {**quad["parameters"], "curvatures": [2.0, -1.0]}}},
         "objective.parameters.curvatures[1]"),
        ("thm2-diverge", {"options": {"steps": -1}}, "options.steps"),
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
        assert err.startswith(f"config error: {key}: expected "), err
    assert not (tmp_path / "o").exists()


def _range_cases(cls, path="options"):
    """(overrides, path) for each value just outside the range of each
    range-typed field of an options record, nested records and list
    entries included."""
    for name, (hint, _) in fields_of(cls).items():
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            [hint] = [a for a in typing.get_args(hint) if a is not type(None)]
        if dataclasses.is_dataclass(hint):
            for inner, where in _range_cases(hint, f"{path}.{name}"):
                yield {name: inner}, where
            continue
        listed = typing.get_origin(hint) is list
        if listed:
            hint = typing.get_args(hint)[0]
        if typing.get_origin(hint) is not typing.Annotated:
            continue
        base, allowed = typing.get_args(hint)
        below = math.nextafter(allowed.lo, -math.inf) if base is float else allowed.lo - 1
        outside = [allowed.lo if allowed.lo_open else below]
        if math.isfinite(allowed.hi):
            outside.append(allowed.hi)
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
            ("Custom", "options.gd.clip_threshold"), ("Thm2Slow", "options.construction.M")} <= paths


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
    opt = cfg.validate()
    assert opt.adam.epochs == 40 and opt.adam.eta1 == 0.5 and opt.adam.beta2 == 0.999
    assert opt.gd_eta_multipliers == [2] and type(opt.gd_eta_multipliers[0]) is int
    # the echo is the merged input, not the filled record
    assert cfg.to_dict()["options"]["adam"] == {"epochs": 40}
    # Custom's Adam defaults are AdamParams'
    custom = small_custom_config().validate()
    assert vars(custom.adam) == {
        k: getattr(AdamParams(), k) for k in ("beta1", "beta2", "eta1", "xi", "schedule", "init_mode")
    }


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


def test_cli_overflowing_start_point_is_a_config_error(tmp_path, capsys):
    # f(x0) overflows to inf, which the problem constants reject
    cfg = tmp_path / "cfg.json"
    objective = to_spec(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]]))
    cfg.write_text(json.dumps({"objective": objective, "options": {"x0": [1e200]}}))
    rc = cli_main(["lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error: f_gap: expected a finite number, got inf" in capsys.readouterr().err


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
