"""Experiment drivers and deterministic artifact emission.

Five canned experiments plus a pass-through custom mode:

* ``Fig3`` -- reshuffled Adam on the ten-component counterexample across a
  beta2 grid; verifies the gradient-size floor at short second-moment memory
  and the monotone improvement as beta2 -> 1.
* ``Thm2Divergence`` -- gradient descent at and above the blow-up threshold
  on the two-piece landscape; audits per-step sqrt(2) growth of |x|.
* ``Thm2Slow`` -- gradient descent below the threshold; audits the epsilon
  gradient floor before the slow-progress horizon.
* ``AdamVsGd`` -- the head-to-head: every GD step size either diverges or
  stalls, while Adam reaches an epsilon-small gradient within budget.
* ``LemmaSuite`` -- per-step audits of the update-magnitude and momentum-gap
  bounds across a hyperparameter grid.

Each experiment is one ``REGISTRY`` record with a runner of its own, called
as ``run(config, options, (obj, w0, con))`` on the landscape that
``ExperimentConfig.validate`` built. A runner first builds its runs, each a ``Run`` (id, trajectory, report row,
plot values), then derives its conclusions from those rows; it returns the
runs and a dict of the experiment's own report keys (``conclusions``, and
``construction`` or ``problem_constants``). Every run is one cell: an arm,
an ``AdamArm`` or a GD arm (``GdOptions``), with a budget, a seed and
``record_steps``. A runner hands its cells to ``run_cells``, which returns
their trajectories in cell order: a group of at least ``LOCKSTEP_MIN_LANES``
Adam cells that share a permutation stream on an objective with an
``affine1`` pair runs as the lanes of one ``adam_lockstep`` call, and every
other cell runs ``run_arm``, the one caller of ``adam_run`` and ``gd_run``.
``_gd_sweep`` builds the GD cells of the three step-size sweeps on the
Theorem 2 construction. ``run_experiment`` alone
joins runs and keys: it sorts the runs by id and builds the report's rows,
the trajectories and the plot table the record names, so a run's row,
trajectory and block share one id.

``emit`` lays out the artifact tree, and ``artifacts`` writes each file's
text. Emission is byte-deterministic: runs are sorted by run id, JSON is
written with sorted keys, and no timestamps appear anywhere.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import shutil
import sys
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Literal, Optional

from . import __version__
from .artifacts import open_csv, table_columns, write_json, write_table
from .landscapes import FiniteSumObjective, from_spec, make_lowerbound
from .optimizers import (
    AdamArm,
    AdamParams,
    InitMode,
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    Schedule,
    Trajectory,
    adam_lockstep,
    adam_run,
    export_trajectory_csv,
    gd_run,
    tail_mean_grad_norm,
    trajectory_summary,
)
from .probes import affine_noise_fit, check_bounded_update, check_u_gap
from .rng import ALGORITHM_ID
from .schema import (
    Axis, Beta1, Beta2, CubeFinite, Fraction, NonNegative, Positive, Seed, Size, SquarePositive, check, parse,
)
from .theory import ConstraintViolation, NonMonotoneError, NoRootError, ProblemConstants, Thm2Construction
from .theory import compute_constants, gamma_threshold

HALF_LOG2 = 0.5 * math.log(2.0)
# what a config's runs start from: objective, start point, Theorem 2 construction (None off it)
Landscape = tuple[FiniteSumObjective, list[float], Optional[Thm2Construction]]


@dataclass
class ExperimentConfig:
    experiment: str
    objective: Optional[dict] = None
    seeds: Axis(Seed) = field(default_factory=lambda: [1, 2, 3])
    T: Size = 10_000
    format: Literal["csv", "json"] = "csv"
    out_dir: Optional[str] = None
    options: dict = field(default_factory=dict)

    def validate(self) -> tuple[Any, Landscape]:
        """Check every field, the objective and the options; return the typed
        options and the landscape ``(obj, w0, con)`` the runs start from:
        ``make_lowerbound``'s for ``T`` when the options have a
        ``construction``, else the objective, ``options.x0`` (None: the
        origin) and None. Every failure is a ValueError."""
        check(ExperimentConfig, **vars(self))
        exp = _experiment(self.experiment)
        if len(self.seeds) > 1 and not exp.sweeps_seeds:
            raise ValueError(f"seeds: {exp.name} runs one seed, got {self.seeds}")
        options = parse(exp.Options, self.options, "options")
        takes_objective = not hasattr(options, "construction")
        if (self.objective is not None) != takes_objective:
            raise ValueError(f"objective: {exp.name} {'needs an' if takes_objective else 'takes no'} objective")
        if not takes_objective:
            try:
                return options, make_lowerbound(T=self.T, **vars(options.construction))
            except ConstraintViolation as exc:
                raise ConstraintViolation(f"options.construction: {exc}", exc.detail) from exc
        obj = from_spec(self.objective)
        w0 = [0.0] * obj.d if options.x0 is None else [float(v) for v in options.x0]
        if len(w0) != obj.d:
            raise ValueError(f"options.x0: expected {obj.d} coordinates (the objective's d), got {len(w0)}")
        return options, (obj, w0, None)


def merge_config(base: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Shallow-merge a config dict onto a default: top-level fields replace,
    ``options`` merges key by key. An unknown or mistyped top-level key
    raises ValueError; ``validate`` checks the rest."""
    merged = {**asdict(base), **overrides}
    if isinstance(merged["options"], dict):
        merged["options"] = {**base.options, **merged["options"]}
    return parse(ExperimentConfig, merged)


# ---------------------------------------------------------------------------
# typed options: each field's default is the experiment's default option


def _list(*values):
    return field(default_factory=lambda: list(values))


@dataclass(frozen=True)
class Construction:
    L0: Positive = 1.0
    L1: SquarePositive = 1.0
    M: Positive = 100.0
    f_bar: Positive = 199.0


@dataclass(frozen=True)
class ComparisonAdamOptions(AdamArm):
    eta1: Positive = 0.5
    epochs: Size = 4000


@dataclass(frozen=True)
class GdOptions:
    eta1: Positive = 0.1
    schedule: Schedule = "Diminishing"
    clip_threshold: Optional[Positive] = None  # the GD arm is clipped GD with one


@dataclass(frozen=True)
class Fig3Options:
    beta1: Beta1 = AdamArm.beta1
    beta2_grid: Axis(Beta2) = _list(0.9, 0.99, 0.999)
    eta1: Positive = AdamArm.eta1
    xi: NonNegative = AdamArm.xi
    schedule: Schedule = AdamArm.schedule
    init_mode: InitMode = AdamArm.init_mode
    x0: list[float] = _list(-2.0)
    tail_frac: Fraction = 0.1
    grad_floor: float = 1e-4


@dataclass(frozen=True)
class Thm2DivergenceOptions:
    construction: Construction = Construction()
    eta_multipliers: Axis(Positive) = _list(1.0, 1.05, 2.0)
    steps: Size = 50
    growth_tol: float = 1e-9
    min_checks_per_run: int = 3
    min_checks_total: int = 10


@dataclass(frozen=True)
class Thm2SlowOptions:
    construction: Construction = Construction()
    eta_multipliers: Axis(Positive) = _list(0.1, 0.5, 0.99)
    steps: Size = 10_000
    complete_multipliers: list[float] = _list(0.1, 0.5)

    def __post_init__(self):
        stray = [m for m in self.complete_multipliers if m not in self.eta_multipliers]
        if stray:
            raise ValueError(f"complete_multipliers: {stray} not in eta_multipliers")


@dataclass(frozen=True)
class ComparisonOptions:
    construction: Construction = Construction()
    gd_eta_multipliers: Axis(Positive) = _list(0.25, 0.5, 1.0, 2.0, 4.0)
    gd_steps: Size = 10_000
    adam: ComparisonAdamOptions = ComparisonAdamOptions()


@dataclass(frozen=True)
class LemmaSuiteOptions:
    beta1_grid: Axis(Beta1) = _list(0.0, 0.5, 0.9)
    beta2_grid: Axis(Beta2) = _list(0.99, 0.999)
    eta1_grid: Axis(CubeFinite) = _list(0.01, 0.1)  # compute_constants' range
    schedules: Axis(Schedule) = _list("Diminishing", "Constant")
    xi: NonNegative = AdamArm.xi
    init_mode: InitMode = AdamArm.init_mode
    x0: list[float] = _list(-2.0)

    def __post_init__(self):
        if all(b1 * b1 >= b2 for b1 in self.beta1_grid for b2 in self.beta2_grid):
            raise ValueError("beta1_grid: beta1**2 >= beta2 on every pair, so no run is audited")


@dataclass(frozen=True)
class CustomOptions:
    algo: Literal["adam", "gd", "clipped_gd"] = "adam"
    x0: Optional[list[float]] = None  # None: the origin
    record_steps: bool = False
    require_completed: bool = True
    adam: AdamArm = AdamArm()
    gd: GdOptions = GdOptions()

    def __post_init__(self):
        if self.algo == "clipped_gd" and self.gd.clip_threshold is None:
            raise ValueError("gd.clip_threshold: clipped_gd needs one")
        if self.algo == "gd" and self.gd.clip_threshold is not None:
            raise ValueError("gd.clip_threshold: gd takes none")


# ---------------------------------------------------------------------------
# result container

# A plot table: one block per run, in sorted run id order (the order emit
# writes the trajectories in), one row per epoch-boundary snapshot of each
# run. A block maps each column name to the run's NumPy column or to the one
# value all the run's rows share.
PlotBlock = dict[str, Any]
PlotTable = list[PlotBlock]


@dataclass
class Run:
    """One run as a runner hands it over: its id, its trajectory, its report
    row without ``run_id`` and ``status``, and its plot block's values beside
    ``k``, ``grad_norm`` and ``run_id`` (unread without a plot table).
    A per-run constant is given once, as the Python value the config gave
    (a multiplier given as 2 stays 2)."""

    rid: str
    traj: Trajectory
    row: dict
    plot: PlotBlock = field(default_factory=dict)


@dataclass
class ExperimentResult:
    report: dict
    trajectories: dict[str, Trajectory]
    plot_tables: dict[str, PlotTable]

    @property
    def ok(self) -> bool:
        return bool(self.report["conclusions"].get("all_ok", False))


def _pick(record, *names: str) -> dict:
    return {name: getattr(record, name) for name in names}


def _params(arm: AdamArm, budget: int, seed: int, record_steps: bool) -> AdamParams:
    return AdamParams(**{**vars(arm), "epochs": budget, "seed": seed, "record_steps": record_steps})


def run_arm(obj: FiniteSumObjective, w0: list[float], arm: AdamArm | GdOptions, budget: int, seed: int,
            record_steps: bool) -> Trajectory:
    """One run of ``arm`` from ``w0``: ``budget`` GD steps for a GD arm, which
    draws no random numbers, else ``budget`` Adam epochs (over any ``epochs``
    the arm carries) under ``seed``."""
    if isinstance(arm, GdOptions):
        return gd_run(obj, w0, arm.eta1, steps=budget, schedule=arm.schedule, clip_threshold=arm.clip_threshold,
                      record_steps=record_steps)
    return adam_run(obj, w0, _params(arm, budget, seed, record_steps))


# (arm, budget, seed, record_steps): one run of a runner
Cell = tuple[AdamArm | GdOptions, int, int, bool]

# The fewest Adam cells that run_cells advances in lockstep. CPU time of
# one adam_lockstep call over that of its lanes' adam_run calls, _trajectory
# included, on the counterexample at 1000 epochs (median of 9 interleaved
# pairs, BENCH_32.json "crossover"); below 1 the lockstep group is faster:
#
#   lanes                4     8     12    16    20    24    48
#   with step records    2.19  1.57  1.16  0.88  0.86  0.77  0.60
#   without              4.08  2.31  1.69  1.20  0.95  0.91  0.51
LOCKSTEP_MIN_LANES = 20


def run_cells(obj: FiniteSumObjective, w0: list[float], cells: list[Cell]) -> list[Trajectory]:
    """The trajectory of each cell from ``w0``, in cell order. Adam cells
    that share a budget, a seed and record_steps share one permutation
    stream: on an objective with an ``affine1`` pair, a group of at least
    LOCKSTEP_MIN_LANES of them runs as the lanes of one adam_lockstep call,
    bit for bit what run_arm gives each. Every other cell runs run_arm."""
    trajs: list[Optional[Trajectory]] = [None] * len(cells)
    groups: dict[tuple, list[int]] = {}
    if obj.affine1 is not None:
        for c, (arm, *run) in enumerate(cells):
            if isinstance(arm, AdamArm):
                groups.setdefault(tuple(run), []).append(c)
    for run, lanes in groups.items():
        if len(lanes) >= LOCKSTEP_MIN_LANES:
            group = adam_lockstep(obj, w0, [_params(cells[c][0], *run) for c in lanes])
            for c, traj in zip(lanes, group):
                trajs[c] = traj
    return [traj or run_arm(obj, w0, *cell) for traj, cell in zip(trajs, cells)]


# ---------------------------------------------------------------------------
# Fig3


def run_fig3(config: ExperimentConfig, opt: Fig3Options, landscape: Landscape) -> tuple[list[Run], dict]:
    obj, w0, _ = landscape
    runs: list[Run] = []

    grid = sorted(opt.beta2_grid)
    seeds = sorted(config.seeds)
    shared = _pick(opt, "beta1", "eta1", "xi", "schedule", "init_mode")
    cells = [(b2, seed) for b2 in grid for seed in seeds]
    trajs = run_cells(obj, w0, [(AdamArm(**shared, beta2=b2), config.T, seed, False) for b2, seed in cells])
    for (b2, seed), traj in zip(cells, trajs):
        row = {
            "beta2": b2,
            "seed": seed,
            "tail_mean_grad_norm": tail_mean_grad_norm(traj, opt.tail_frac),
            "summary": trajectory_summary(traj),
        }
        runs.append(Run(f"b2={b2!r}-seed={seed}", traj, row, {"beta2": b2, "seed": seed}))

    tails = {(run.row["beta2"], run.row["seed"]): run.row["tail_mean_grad_norm"] for run in runs}
    floor_ok = {s: tails[(grid[0], s)] > opt.grad_floor for s in seeds}
    order_ok = {
        s: all(tails[(a, s)] > tails[(b, s)] for a, b in zip(grid, grid[1:]))
        for s in seeds
    }
    completed = all(run.traj.status == STATUS_COMPLETED for run in runs)
    conclusions = {
        "floor_value": opt.grad_floor,
        "lowest_beta2": grid[0],
        "floor_ok_per_seed": {str(s): floor_ok[s] for s in seeds},
        "ordering_ok_per_seed": {str(s): order_ok[s] for s in seeds},
        "all_completed": completed,
        "all_ok": completed and all(floor_ok.values()) and all(order_ok.values()),
    }
    return runs, {"conclusions": conclusions}


# ---------------------------------------------------------------------------
# GD on the Theorem 2 construction: Thm2Divergence, Thm2Slow and AdamVsGd


def _gd_sweep(
    obj: FiniteSumObjective, w0: list[float], eta_star: float, multipliers: list, key: str, steps: int,
    record_steps: bool,
) -> list[tuple[Any, Trajectory, dict]]:
    """Run Diminishing GD from ``w0`` once per multiplier of ``eta_star``, in
    sorted order. Returns ``[(mult, traj, base_row)]``; a base row holds
    ``eta_mult``, ``eta1`` and ``summary``. Before the first run, a step size
    that is not positive and finite is a ValueError naming ``options.<key>``,
    the option the multipliers came from."""
    etas = [mult * eta_star for mult in multipliers]
    for i, (mult, eta1) in enumerate(zip(multipliers, etas)):
        if not 0.0 < eta1 < math.inf:
            step = f"{mult!r} * eta_star {eta_star!r} is {eta1!r}"
            raise ValueError(f"options.{key}[{i}]: {step}, not a positive finite step size")
    cells = sorted(zip(multipliers, etas))
    trajs = run_cells(obj, w0, [(GdOptions(eta1, "Diminishing"), steps, 0, record_steps) for _, eta1 in cells])
    return [
        (mult, traj, {"eta_mult": mult, "eta1": eta1, "summary": trajectory_summary(traj)})
        for (mult, eta1), traj in zip(cells, trajs)
    ]


def _min_before_horizon(traj: Trajectory, con: Thm2Construction) -> tuple[int, Optional[float]]:
    """How many epoch-boundary gradient norms precede the slow horizon, and
    the least of them (None if none). Python's ``min`` over the floats skips
    a NaN after the first norm, as a NaN never wins a comparison."""
    e = traj.epochs
    before = e.grad_norm[e.k < con.slow_horizon].tolist()
    return len(before), min(before) if before else None


def _growth_ratios(traj: Trajectory) -> list[float]:
    """log |x_{j+1}| - log |x_j| along the first coordinate, including the
    final post-step iterate (possibly infinite)."""
    xs = traj.epochs.w0[:, 0].tolist()
    if traj.status != STATUS_COMPLETED:
        # completed runs already end with the closing boundary snapshot
        xs.append(traj.final_w[0])
    logs = [math.log(abs(x)) if x != 0.0 else -math.inf for x in xs]
    return [b - a for a, b in zip(logs, logs[1:])]


def _iterates_run(mult, traj: Trajectory, row: dict) -> Run:
    """A Thm2 run, plotted as its epoch-boundary iterates (x, y)."""
    w = traj.epochs.w0
    return Run(f"eta_mult={mult!r}", traj, row, {"eta_mult": mult, "x": w[:, 0], "y": w[:, 1]})


def run_thm2_divergence(
    config: ExperimentConfig, opt: Thm2DivergenceOptions, landscape: Landscape
) -> tuple[list[Run], dict]:
    obj, w0, con = landscape
    runs: list[Run] = []
    sweep = _gd_sweep(obj, w0, con.eta_star, opt.eta_multipliers, "eta_multipliers", opt.steps, True)
    for mult, traj, row in sweep:
        ratios = _growth_ratios(traj)
        row["growth_ratios"] = ratios
        row["growth_ok"] = all(r >= HALF_LOG2 - opt.growth_tol for r in ratios)
        row["growth_checks"] = len(ratios)
        row["diverged"] = traj.status == STATUS_DIVERGED
        runs.append(_iterates_run(mult, traj, row))

    per_run_counts = {run.rid: run.row["growth_checks"] for run in runs}
    total_checks = sum(per_run_counts.values())
    all_growth_ok = all(run.row["growth_ok"] and run.row["diverged"] for run in runs)
    per_run_ok = all(v >= opt.min_checks_per_run for v in per_run_counts.values())
    conclusions = {
        "total_growth_checks": total_checks,
        "min_checks_total": opt.min_checks_total,
        "per_run_counts": per_run_counts,
        "all_growth_ok": all_growth_ok,
        "all_ok": all_growth_ok and per_run_ok and total_checks >= opt.min_checks_total,
    }
    return runs, {"construction": asdict(con), "conclusions": conclusions}


def run_thm2_slow(config: ExperimentConfig, opt: Thm2SlowOptions, landscape: Landscape) -> tuple[list[Run], dict]:
    obj, w0, con = landscape
    runs: list[Run] = []
    sweep = _gd_sweep(obj, w0, con.eta_star, opt.eta_multipliers, "eta_multipliers", opt.steps, True)
    for mult, traj, row in sweep:
        checked, least = _min_before_horizon(traj, con)
        row["floor_ok"] = least is not None and least >= con.epsilon
        row["checked_before_horizon"] = checked
        row["min_grad_before_horizon"] = least
        if mult in opt.complete_multipliers:
            row["completed_as_expected"] = traj.status == STATUS_COMPLETED
        runs.append(_iterates_run(mult, traj, row))

    checks = {
        "horizon_in_window": 100 <= con.slow_horizon < config.T,
        "floor_ok_all": all(run.row["floor_ok"] for run in runs),
        "completions_ok": all(run.row.get("completed_as_expected", True) for run in runs),
    }
    conclusions = {"slow_horizon": con.slow_horizon, **checks, "all_ok": all(checks.values())}
    return runs, {"construction": asdict(con), "conclusions": conclusions}


def run_comparison(config: ExperimentConfig, opt: ComparisonOptions, landscape: Landscape) -> tuple[list[Run], dict]:
    obj, w0, con = landscape
    a = opt.adam
    try:  # before any run: a beta1 that leaves no threshold is a config error
        gamma = gamma_threshold(D1=obj.known_D0_D1[1], n=obj.n, d=obj.d, beta1=a.beta1)
    except (NoRootError, NonMonotoneError) as exc:
        raise ValueError(f"options.adam.beta1: no beta2 threshold for beta1 {a.beta1!r} ({exc})") from exc
    runs: list[Run] = []
    sweep = _gd_sweep(obj, w0, con.eta_star, opt.gd_eta_multipliers, "gd_eta_multipliers", opt.gd_steps, False)
    for mult, traj, row in sweep:
        _, least = _min_before_horizon(traj, con)
        stuck = least is not None and least >= con.epsilon
        row["algo"] = "gd"
        row["verdict"] = "diverged" if traj.status == STATUS_DIVERGED else ("stuck" if stuck else "progressed")
        row["min_grad_before_horizon"] = least
        runs.append(Run(f"gd-eta_mult={mult!r}", traj, row))

    [traj] = run_cells(obj, w0, [(a, a.epochs, config.seeds[0], False)])
    e = traj.epochs
    crossing = next(
        (k for k, gn in zip(e.k.tolist(), e.grad_norm.tolist()) if gn < con.epsilon), None
    )
    row = {
        "algo": "adam",
        "beta2_admissible": a.beta2 > gamma,
        "gamma": gamma,
        "first_epsilon_crossing": crossing,
        "budget_epochs": a.epochs,
        "summary": trajectory_summary(traj),
    }
    runs.append(Run("adam", traj, row))

    checks = {
        "gd_all_stuck_or_diverged": all(r.row["verdict"] != "progressed" for r in runs if r.row["algo"] == "gd"),
        "adam_reached_epsilon": traj.status == STATUS_COMPLETED and crossing is not None,
        "beta2_admissible": row["beta2_admissible"],
    }
    conclusions = {"epsilon": con.epsilon, "adam_crossing_epoch": crossing, **checks}
    conclusions["all_ok"] = all(checks.values())
    construction = _pick(con, "epsilon", "eta_star", "slow_horizon", "x0", "y0")
    return runs, {"construction": construction, "conclusions": conclusions}


# ---------------------------------------------------------------------------
# lemma suite


def run_lemma_suite(config: ExperimentConfig, opt: LemmaSuiteOptions, landscape: Landscape) -> tuple[list[Run], dict]:
    obj, w0, _ = landscape
    if obj.known_min is None:  # f_gap, and with it the bound, needs inf f
        raise ValueError(f"objective: this {obj.kind} has no known minimum, which the value gap f_gap needs")
    f0 = obj.value(w0)
    if not math.isfinite(f0):  # f_gap, and with it the bound, needs a finite start value
        raise ValueError(f"options.x0: the objective's value there is {f0!r}, not a finite number")
    runs: list[Run] = []

    # envelope fit once: problem-level constants for the constant pipeline,
    # over 101 evenly spaced points of the diagonal from -3 to 3
    pts = [[-3.0 + 6.0 * i / 100.0] * obj.d for i in range(101)]
    fit = affine_noise_fit(obj, pts)
    if not (math.isfinite(fit.D0_hat) and math.isfinite(fit.D1_hat)):
        bounds = f"D0 {fit.D0_hat!r}, D1 {fit.D1_hat!r}"
        raise ValueError(f"objective: its noise envelope (affine_noise_fit) leaves the float range: {bounds}")
    L0c, L1c = obj.known_L0_L1
    f_gap = max(0.0, f0 - obj.known_min)  # f0 may round below the closed-form minimum
    pc = ProblemConstants(L0=L0c, L1=L1c, D0=fit.D0_hat, D1=fit.D1_hat, n=obj.n, d=obj.d, f_gap=f_gap)
    problem_constants = _pick(pc, "L0", "L1", "D0", "D1", "f_gap")

    combos = sorted(itertools.product(opt.beta1_grid, opt.beta2_grid, opt.eta1_grid, opt.schedules))
    combos = [combo for combo in combos if combo[0] * combo[0] < combo[1]]
    # every audited cell's constants, before the first run: a grid value
    # they cannot be computed at is refused by its key
    constants = {}
    for beta1, beta2, eta1, _ in combos:
        try:
            constants[beta1, beta2, eta1] = compute_constants(beta1, beta2, eta1, pc)
        except ValueError as exc:  # led by the name of the argument at fault
            arg, _, why = str(exc).partition(": ")
            grid = getattr(opt, f"{arg}_grid")
            value = {"beta1": beta1, "beta2": beta2, "eta1": eta1}[arg]
            raise ValueError(f"options.{arg}_grid[{grid.index(value)}]: {why}") from None
    trajs = run_cells(obj, w0, [
        (AdamArm(beta1, beta2, eta1, opt.xi, schedule, opt.init_mode), config.T, config.seeds[0], True)
        for beta1, beta2, eta1, schedule in combos
    ])
    for (beta1, beta2, eta1, schedule), traj in zip(combos, trajs):
        tc = constants[beta1, beta2, eta1]
        row = {"beta1": beta1, "beta2": beta2, "eta1": eta1, "schedule": schedule, "C1": tc.C1, "C2": tc.C2}
        for rep in (check_bounded_update(traj, tc), check_u_gap(traj, tc)):
            row[rep.name] = {"checked": rep.checked, "violations": rep.violation_count, "max_ratio": rep.max_ratio}
        runs.append(Run(f"b1={beta1!r}-b2={beta2!r}-eta={eta1!r}-{schedule}", traj, row))

    audits = [run.row[name] for run in runs for name in ("bounded_update", "u_gap")]
    total_violations = sum(audit["violations"] for audit in audits)
    completed = all(run.traj.status == STATUS_COMPLETED for run in runs)
    conclusions = {
        "total_violations": total_violations,
        "max_ratio": max([0.0] + [audit["max_ratio"] for audit in audits]),
        "runs": len(runs),
        "all_completed": completed,
        "all_ok": completed and total_violations == 0,
    }
    return runs, {"problem_constants": problem_constants, "conclusions": conclusions}


# ---------------------------------------------------------------------------
# custom


def run_custom(config: ExperimentConfig, opt: CustomOptions, landscape: Landscape) -> tuple[list[Run], dict]:
    obj, w0, _ = landscape
    runs: list[Run] = []

    arm = opt.adam if opt.algo == "adam" else opt.gd
    seeds = sorted(config.seeds)
    trajs = run_cells(obj, w0, [(arm, config.T, seed, opt.record_steps) for seed in seeds])
    for seed, traj in zip(seeds, trajs):
        row = {"seed": seed, "summary": trajectory_summary(traj)}
        runs.append(Run(f"{opt.algo}-seed={seed}", traj, row))

    statuses = [run.traj.status for run in runs]
    ok = not opt.require_completed or all(s == STATUS_COMPLETED for s in statuses)
    return runs, {"conclusions": {"statuses": sorted(set(statuses)), "all_ok": ok}}


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Experiment:
    """An experiment's name, CLI subcommand, typed options (whose defaults are
    its default options), runner and top-level defaults. The runner is
    called as ``run(config, options, (obj, w0, con))`` with what
    ``ExperimentConfig.validate`` returned. ``objective`` is the default
    objective's spec. ``table`` names the plot table of the runs the runner
    plots; ``sweeps_seeds`` is whether it runs each seed of the list, where
    the others take exactly one. Custom's default config leaves its options
    empty."""

    name: str
    command: str
    Options: type
    run: Callable[[ExperimentConfig, Any, Landscape], tuple[list[Run], dict]]
    seeds: tuple[int, ...]
    T: int
    objective: Optional[dict] = None
    echo_defaults: bool = True
    table: Optional[str] = None
    sweeps_seeds: bool = False


# the default objective of Fig3 and LemmaSuite: to_spec(zhang_counterexample())
ZHANG_SPEC = {"kind": "ZhangCounterexample", "n": 10, "d": 1, "parameters": {"scale": 1.0}}

REGISTRY = {
    e.name: e
    for e in (
        Experiment(
            "Fig3", "fig3", Fig3Options, run_fig3, (1, 2, 3), 10_000,
            objective=ZHANG_SPEC, table="grad_norms", sweeps_seeds=True,
        ),
        Experiment(
            "Thm2Divergence", "thm2-diverge", Thm2DivergenceOptions, run_thm2_divergence, (0,), 10_000,
            table="iterates",
        ),
        Experiment("Thm2Slow", "thm2-slow", Thm2SlowOptions, run_thm2_slow, (0,), 10_000, table="iterates"),
        Experiment(
            "AdamVsGd", "compare", ComparisonOptions, run_comparison, (1,), 10_000, table="grad_norms"
        ),
        Experiment(
            "LemmaSuite", "lemmas", LemmaSuiteOptions, run_lemma_suite, (1,), 1000,
            objective=ZHANG_SPEC,
        ),
        Experiment(
            "Custom", "custom", CustomOptions, run_custom, (1,), 100,
            echo_defaults=False, sweeps_seeds=True,
        ),
    )
}


def _experiment(name: str) -> Experiment:
    if name not in REGISTRY:
        raise ValueError(f"unknown experiment {name!r}")
    return REGISTRY[name]


def default_config_for(experiment: str) -> ExperimentConfig:
    exp = _experiment(experiment)
    return ExperimentConfig(
        experiment=exp.name,
        objective=copy.deepcopy(exp.objective),
        seeds=list(exp.seeds),
        T=exp.T,
        options=asdict(exp.Options()) if exp.echo_defaults else {},
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Validate the config, building its landscape, run the experiment on it
    and build its result from the runs, in sorted run id order: the report's
    rows, the trajectories and the plot table of the plotted runs."""
    options, landscape = config.validate()
    exp = REGISTRY[config.experiment]
    runs, own = exp.run(config, options, landscape)
    runs.sort(key=lambda run: run.rid)
    trajectories = {run.rid: run.traj for run in runs}
    if len(trajectories) != len(runs):
        raise AssertionError(f"{exp.name}: two runs share a run id")
    report = {
        "experiment": exp.name,
        "config": {**asdict(config), "out_dir": None},  # reports are location-independent
        "environment": {
            "package": "adamlab",
            "version": __version__,
            "rng": ALGORITHM_ID,
            "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        },
        "runs": [{"run_id": run.rid, "status": run.traj.status, **run.row} for run in runs],
        **own,
    }
    tables = {exp.table: [
        {"k": run.traj.epochs.k, "grad_norm": run.traj.epochs.grad_norm, "run_id": run.rid, **run.plot}
        for run in runs
    ]} if exp.table else {}
    return ExperimentResult(report, trajectories, tables)


# ---------------------------------------------------------------------------
# emission


def emit(result: ExperimentResult, out_root: str, fmt: Optional[str] = None) -> list[str]:
    """Write report.json, per-run trajectory.csv + summary.json, and plot
    tables under <out_root>/<experiment>/. Returns the written paths. A CSV
    plot table is written run by run, each block with its run's
    trajectory.csv; a JSON one after the runs.
    Bytes depend only on the result (no clocks, no environment noise beyond
    the version echo). The tree is built in a hidden sibling directory and
    renamed into place, so it replaces an earlier <experiment>/ whole."""
    fmt = fmt or result.report["config"].get("format", "csv")
    exp_dir = os.path.join(out_root, result.report["experiment"])
    hidden = os.path.join(out_root, "." + result.report["experiment"])
    work, old = f"{hidden}.partial-{os.getpid()}", f"{hidden}.old-{os.getpid()}"
    for path in (work, old):
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(work)
    written: list[str] = []
    try:
        report_path = os.path.join(work, "report.json")
        write_json(result.report, report_path)
        written.append(report_path)

        rids = sorted(result.trajectories)
        with ExitStack() as stack:
            # each run's plot-table blocks are written in lockstep with its
            # trajectory.csv, so that a column both hold is formatted once
            # per block (artifacts.write_rows)
            beside: list[list] = [[] for _ in rids]
            for name in sorted(result.plot_tables) if fmt == "csv" else ():
                table = result.plot_tables[name]
                if [block["run_id"] for block in table] != rids:
                    raise AssertionError(f"{name}: its blocks are not the runs in run id order")
                header, runs = table_columns(table)
                fh = stack.enter_context(open_csv(os.path.join(work, name + ".csv"), header))
                for parts, cols in zip(beside, runs):
                    parts.append((fh, cols))
            for rid, parts in zip(rids, beside):
                traj = result.trajectories[rid]
                run_dir = os.path.join(work, rid)
                os.makedirs(run_dir, exist_ok=True)
                tpath = os.path.join(run_dir, "trajectory.csv")
                export_trajectory_csv(traj, tpath, parts)
                written.append(tpath)
                spath = os.path.join(run_dir, "summary.json")
                write_json(trajectory_summary(traj), spath)
                written.append(spath)

        for name in sorted(result.plot_tables):
            if fmt == "csv":
                written.append(os.path.join(work, name + ".csv"))
            else:
                written.append(write_table(result.plot_tables[name], os.path.join(work, name)))

        if os.path.isdir(exp_dir):
            os.rename(exp_dir, old)
        os.rename(work, exp_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(old, ignore_errors=True)
    return [os.path.join(exp_dir, os.path.relpath(p, work)) for p in written]
