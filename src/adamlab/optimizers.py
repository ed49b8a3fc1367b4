"""Reshuffled Adam and (clipped) gradient-descent runners.

The Adam variant processes one component gradient per inner step, drawing a
fresh uniform permutation of the components at the start of every epoch.
First and second moment accumulators carry over across epoch boundaries; no
bias correction is applied anywhere. Step size schedules: eta_k = eta1 /
sqrt(k) ("Diminishing", k = epoch index from 1) or constant eta1.

Runs never raise on numerical blow-up: iterates are monitored and the
trajectory ends with status "Diverged" (sup-norm above 1e100, infinities
included) or "NonFinite" (NaN in the iterate), recording the failing step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain
from typing import Literal, Optional, Sequence

import numpy as np
import orjson

from .landscapes import FiniteSumObjective, check_point, to_spec
from .rng import SplitMix64, stream_for_run
from .schema import Beta1, Beta2, Count, NonNegative, Positive, check

GUARD_SUP_NORM = 1e100

# Epoch permutations are drawn in blocks of at most this many stream draws.
PERM_BLOCK_DRAWS = 8192

# write_csv formats and writes this many rows at a time. Each block's cells
# are held as Python strings; 1024 rows keeps that within a few MB on the
# widest tables, where 4096 rows raised Fig3's peak RSS by about 9%.
CSV_BLOCK_ROWS = 1024

# gd_run takes its step sizes from eta_schedule's column this many at a time.
ETA_BLOCK_STEPS = 1024

SCHEDULE_DIMINISHING = "Diminishing"
SCHEDULE_CONSTANT = "Constant"
INIT_PAPER_THEORY = "PaperTheory"
INIT_ZERO_STATE = "ZeroState"
Schedule = Literal[SCHEDULE_DIMINISHING, SCHEDULE_CONSTANT]
InitMode = Literal[INIT_PAPER_THEORY, INIT_ZERO_STATE]

STATUS_COMPLETED = "Completed"
STATUS_DIVERGED = "Diverged"
STATUS_NONFINITE = "NonFinite"


@dataclass(frozen=True)
class AdamParams:
    """Hyperparameters for a reshuffled-Adam run.

    xi is the denominator offset added to sqrt(nu); zero is allowed. seed and
    run_index determine the permutation stream; distinct run_index values
    give independent streams under one seed. Every field is checked against
    its declared type when the record is built (ValueError otherwise).
    """

    beta1: Beta1 = 0.9
    beta2: Beta2 = 0.999
    eta1: Positive = 0.1
    xi: NonNegative = 1e-8
    schedule: Schedule = SCHEDULE_DIMINISHING
    epochs: Count = 100
    init_mode: InitMode = INIT_PAPER_THEORY
    seed: Count = 0
    run_index: Count = 0
    record_steps: bool = True

    def __post_init__(self) -> None:
        check(AdamParams, **vars(self))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AdamState:
    """Mutable optimizer state between inner steps."""

    w: list[float]
    m: list[float]
    nu: list[float]
    k: int
    stream: SplitMix64
    w_prev: list[float] = field(default_factory=list)  # iterate one step back


class _Table:
    """Equal-length NumPy columns, one row per record; len() is the row
    count. Iterate columns hold the d coordinates of each row (rows x d)."""

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, rows: slice):
        if not isinstance(rows, slice):
            raise TypeError("table rows are selected by slice; read a column for values")
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)})


@dataclass(frozen=True, eq=False)
class EpochTable(_Table):
    """One row per epoch-boundary snapshot k = 1, 2, ...: w0 = w_{k,0},
    w_prev = the iterate one inner step earlier (equal to w0 at k = 1), and
    the full-gradient norm and objective value at w0, the value evaluated
    after the run. Row k - 1 holds snapshot k."""

    k: np.ndarray
    eta: np.ndarray
    w0: np.ndarray
    w_prev: np.ndarray
    grad_norm: np.ndarray
    f_value: np.ndarray


@dataclass(frozen=True, eq=False)
class StepTable(_Table):
    """One row per recorded inner step (0 rows without record_steps):
    component tau visited at (k, i) from w_before. ratio_l = |m_l| /
    (sqrt(nu_l) + xi) after the update; update_abs_l = eta_k * ratio_l is
    the realized move magnitude; f_value is the objective at w_before,
    evaluated after the run."""

    k: np.ndarray
    i: np.ndarray
    tau: np.ndarray
    w_before: np.ndarray
    ratio: np.ndarray
    update_abs: np.ndarray
    f_value: np.ndarray


@dataclass
class Trajectory:
    algo: str  # "adam" | "gd" | "clipped_gd"
    params: dict
    objective_spec: Optional[dict]
    steps: StepTable
    epochs: EpochTable
    status: str
    fail_step: Optional[tuple[int, int]]
    final_w: tuple

    def epoch_starts(self) -> EpochTable:
        """Snapshot rows at epoch starts k = 1..T: a completed run's closing
        boundary snapshot is dropped, unless it is the only one (0 epochs)."""
        if self.status == STATUS_COMPLETED and len(self.epochs) >= 2:
            return self.epochs[:-1]
        return self.epochs


def eta_schedule(eta1: float, schedule: str, k):
    """Step size of epoch (or GD step) k >= 1, or the column of them for an
    int array of k. np.sqrt, like math.sqrt, is correctly rounded, so the
    column holds the scalar's values bit for bit."""
    column = isinstance(k, np.ndarray)
    if schedule == SCHEDULE_CONSTANT:
        return np.full(k.shape, eta1) if column else eta1
    return eta1 / (np.sqrt(k) if column else math.sqrt(k))


def _classify(w: Sequence[float]) -> Optional[str]:
    """None if the iterate is acceptable, else a failure status."""
    for v in w:
        if math.isnan(v):
            return STATUS_NONFINITE
    for v in w:
        if abs(v) > GUARD_SUP_NORM:
            return STATUS_DIVERGED
    return None


def adam_init(obj: FiniteSumObjective, w0: Sequence[float], params: AdamParams) -> AdamState:
    """Fresh state at w0.

    PaperTheory mode warm-starts the moments: m = gradient of component 0 at
    w0, nu_l = max over components of the squared l-th partial at w0.
    ZeroState starts both at zero.
    """
    w = check_point(obj, w0)
    if params.init_mode == INIT_PAPER_THEORY:
        m = list(obj.component_grad(0, w))
        nu = [0.0] * obj.d
        for j in range(obj.n):
            g = obj.component_grad(j, w)
            for l in range(obj.d):
                sq = g[l] * g[l]
                if sq > nu[l]:
                    nu[l] = sq
    else:
        m = [0.0] * obj.d
        nu = [0.0] * obj.d
    stream = stream_for_run(params.seed, params.run_index)
    return AdamState(w=w, m=m, nu=nu, k=1, stream=stream, w_prev=list(w))


def adam_epoch(
    state: AdamState,
    obj: FiniteSumObjective,
    params: AdamParams,
    tau: list[int],
    steps: Optional[dict[str, list]] = None,
) -> Optional[tuple[int, int]]:
    """Advance one epoch in place, visiting the components in the order tau
    (a permutation of range(n)). When the step column lists ``steps`` are
    given, append tau to them once and each step's w_before and ratio;
    _trajectory derives the rest of each row. Returns the (epoch, inner
    index) of the step whose result tripped the guard, or None."""
    # Each step's iterate is the start point adam_init checked or one the
    # guard passed. The builder's callable is bound once per epoch: the
    # component_grad method only forwards to it, and calling that per inner
    # step made Fig3's run 7-10% slower in CPU time.
    grad_fn = obj._grad_fn
    beta1, beta2, xi = params.beta1, params.beta2, params.xi
    one_m_b1 = 1.0 - beta1
    one_m_b2 = 1.0 - beta2
    k = state.k
    eta = eta_schedule(params.eta1, params.schedule, k)
    record = steps is not None
    if record:
        steps["tau"].extend(tau)
        add_w, add_ratio = steps["w_before"].extend, steps["ratio"].append
    sqrt, sup = math.sqrt, GUARD_SUP_NORM
    coords = range(obj.d)
    w, m, nu, w_prev = state.w, state.m, state.nu, state.w_prev

    for i, j in enumerate(tau):
        g = grad_fn(j, w)
        if record:
            add_w(w)
        tripped = False
        for l in coords:
            gl = g[l]
            nu_l = nu[l] = beta2 * nu[l] + one_m_b2 * gl * gl
            m_l = m[l] = beta1 * m[l] + one_m_b1 * gl
            den = sqrt(nu_l) + xi
            # never negative: only a true zero (not NaN) means no signal
            if den != 0.0:
                r = m_l / den
            else:
                r = 0.0  # no signal ever seen on this coordinate
            w_l = w_prev[l] = w[l]
            w_l = w[l] = w_l - eta * r
            # true for NaN and for |w_l| above the bound, infinities included
            if not abs(w_l) <= sup:
                tripped = True
            if record:
                add_ratio(abs(r))
        if tripped:
            state.k = k + 1
            return (k, i)
    state.k = k + 1
    return None


def _snapshot(state: AdamState, obj: FiniteSumObjective, epochs: dict[str, list]) -> None:
    """Append the boundary snapshot's w0, w_prev and gradient norm to the
    epoch column lists; _trajectory derives the rest of the row."""
    epochs["w0"].extend(state.w)
    epochs["w_prev"].extend(state.w_prev)
    epochs["grad_norm"].append(math.hypot(*obj.full_grad(state.w)))


def _epoch_orders(stream: SplitMix64, n: int, epochs: int):
    """The component order of each epoch, drawn from the run's stream in
    blocks of at most PERM_BLOCK_DRAWS draws, so memory stays bounded on
    long runs."""
    block = max(1, PERM_BLOCK_DRAWS // n)
    for start in range(0, epochs, block):
        yield from stream.permutations(n, min(block, epochs - start))


def _trajectory(obj: FiniteSumObjective, algo: str, params: dict, snaps: dict, steps: dict,
                status: str, fail: Optional[tuple[int, int]], final_w: list[float]) -> Trajectory:
    """The Trajectory of a finished run, built from the columns only its
    loop knows (plain numbers, iterate rows flat; Adam's are lists, GD's
    are float arrays whose buffers become the NumPy columns uncopied):
    snapshot w0 and grad_norm and step ratio, and for Adam snapshot w_prev,
    step w_before and each epoch's order tau. Derived here:

    * epoch k = 1..rows, and eta from eta_schedule;
    * step (k - 1, i) = divmod(row, n), with one step per epoch for GD;
    * step update_abs = eta_k * ratio, bit for bit |eta_k * r| as eta_k >= 0;
    * for GD: tau = -1; step k starts from snapshot k, so w_before and
      f_value are views of the epoch columns; w_prev is w0 one row down;
    * both f_value columns through mean_values.
    """
    d, adam = obj.d, algo == "adam"

    def matrix(vals) -> np.ndarray:
        return np.asarray(vals, dtype=np.float64).reshape(-1, d)

    w0 = matrix(snaps["w0"])
    k = np.arange(1, len(w0) + 1)
    epochs = EpochTable(
        k=k,
        eta=eta_schedule(params["eta1"], params["schedule"], k),
        w0=w0,
        w_prev=matrix(snaps["w_prev"]) if adam else np.concatenate([w0[:1], w0[:-1]]),
        grad_norm=np.asarray(snaps["grad_norm"], dtype=np.float64),
        f_value=obj.mean_values(w0),
    )
    ratio = matrix(steps["ratio"])
    recorded = len(ratio)
    k0, i = np.divmod(np.arange(recorded), obj.n if adam else 1)
    if adam:
        tau = np.array(steps["tau"][:recorded], dtype=np.int64)
        w_before = matrix(steps["w_before"])
        f_value = obj.mean_values(w_before)
    else:
        tau = np.full(recorded, -1)
        w_before, f_value = w0[:recorded], epochs.f_value[:recorded]
    with np.errstate(all="ignore"):  # overflow and 0 * inf, silent as on Python floats
        update_abs = epochs.eta[k0, None] * ratio
    try:
        spec = to_spec(obj)
    except ValueError:
        spec = None
    return Trajectory(
        algo=algo,
        params=params,
        objective_spec=spec,
        steps=StepTable(k=k0 + 1, i=i, tau=tau, w_before=w_before, ratio=ratio,
                        update_abs=update_abs, f_value=f_value),
        epochs=epochs,
        status=status,
        fail_step=fail,
        final_w=tuple(final_w),
    )


def adam_run(obj: FiniteSumObjective, w0: Sequence[float], params: AdamParams) -> Trajectory:
    """Full reshuffled-Adam run with epoch-boundary snapshots for k = 1..K+1
    (the final boundary only when the run completes)."""
    state = adam_init(obj, w0, params)
    snaps = {"w0": [], "w_prev": [], "grad_norm": []}
    steps = {"tau": [], "w_before": [], "ratio": []}
    record = steps if params.record_steps else None
    status = STATUS_COMPLETED
    fail: Optional[tuple[int, int]] = None

    for tau in _epoch_orders(state.stream, obj.n, params.epochs):
        _snapshot(state, obj, snaps)
        fail = adam_epoch(state, obj, params, tau, record)
        if fail is not None:
            status = _classify(state.w) or STATUS_DIVERGED
            break
    else:
        # closing boundary snapshot k = K+1
        _snapshot(state, obj, snaps)

    return _trajectory(obj, "adam", params.to_dict(), snaps, steps, status, fail, state.w)


# ---------------------------------------------------------------------------
# gradient descent


def gd_run(
    obj: FiniteSumObjective,
    w0: Sequence[float],
    eta1: Positive,
    steps: Count,
    schedule: Schedule = SCHEDULE_CONSTANT,
    clip_threshold: Optional[Positive] = None,
    record_steps: bool = True,
) -> Trajectory:
    """Full-gradient descent w <- w - eta_k grad f(w), one snapshot per step.

    With clip_threshold the gradient is rescaled to that Euclidean norm when
    it exceeds it. Snapshots reuse the epoch structure with one inner step
    per epoch (i = 0, tau = -1). The loop records each snapshot's w0 and
    gradient norm and, with record_steps, each step's ratio |step_l|;
    _trajectory derives the rest.
    """
    check(gd_run, eta1=eta1, steps=steps, schedule=schedule, clip_threshold=clip_threshold)
    w = check_point(obj, w0)
    d = obj.d
    snaps = {"w0": array("d"), "grad_norm": array("d")}
    recs = {"ratio": array("d")}
    status = STATUS_COMPLETED
    fail = None
    # Bound once per run, as in adam_epoch. full_grad stays the method, the
    # one the benchmark's tracer counts; the step sizes come as plain Python
    # numbers from eta_schedule's column, ETA_BLOCK_STEPS at a time.
    full_grad, hypot, sup = obj.full_grad, math.hypot, GUARD_SUP_NORM
    add_w0, add_norm, add_ratio = snaps["w0"].extend, snaps["grad_norm"].append, recs["ratio"].extend
    coords = range(d)
    etas = chain.from_iterable(
        eta_schedule(eta1, schedule, np.arange(start, min(start + ETA_BLOCK_STEPS, steps + 1))).tolist()
        for start in range(1, steps + 1, ETA_BLOCK_STEPS)
    )

    for k, eta in zip(range(1, steps + 1), etas):
        g = full_grad(w)
        gn = hypot(*g)
        add_w0(w)
        add_norm(gn)
        step_vec = g
        if clip_threshold is not None and gn > clip_threshold:
            if math.isfinite(gn):
                c = clip_threshold / gn
                step_vec = [v * c for v in g]
            else:
                # direction only defined by the infinite coordinates
                infs = [l for l in range(d) if math.isinf(g[l])]
                scale = clip_threshold / math.sqrt(len(infs))
                step_vec = [
                    math.copysign(scale, g[l]) if l in infs else 0.0 for l in range(d)
                ]
        if record_steps:
            add_ratio(map(abs, step_vec))
        tripped = False
        for l in coords:
            v = w[l] = w[l] - eta * step_vec[l]
            # true for NaN and for |v| above the bound, infinities included
            if not abs(v) <= sup:
                tripped = True
        if tripped:
            status = _classify(w)
            fail = (k, 0)
            break
    else:
        # closing boundary snapshot k = steps + 1
        add_w0(w)
        add_norm(hypot(*full_grad(w)))

    params = {"eta1": eta1, "steps": steps, "schedule": schedule, "clip_threshold": clip_threshold}
    algo = "gd" if clip_threshold is None else "clipped_gd"
    return _trajectory(obj, algo, params, snaps, recs, status, fail, w)


# ---------------------------------------------------------------------------
# derived sequences and summaries


def aux_sequence(traj: Trajectory, beta1: Beta1) -> np.ndarray:
    """Momentum-corrected epoch sequence u_k = (w_{k,0} - beta1 w_{k,-1}) /
    (1 - beta1), with w_{1,-1} taken as w_{1,0}. One row per snapshot."""
    check(aux_sequence, beta1=beta1)
    e = traj.epochs
    return (e.w0 - beta1 * e.w_prev) * (1.0 / (1.0 - beta1))


def tail_mean_grad_norm(traj: Trajectory, frac: float = 0.1) -> float:
    """Mean epoch-start gradient norm over the last ceil-free max(1,
    floor(K * frac)) epochs k <= K (closing boundary snapshot excluded)."""
    norms = traj.epoch_starts().grad_norm.tolist()
    if not norms:
        return math.nan
    count = max(1, int(len(norms) * frac))
    tail = norms[-count:]
    return math.fsum(tail) / len(tail)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Python's max() of each row of a (rows x d, d >= 1): a NaN wins only
    in the first column, later ones are skipped."""
    return np.where(np.isnan(a[:, 0]), a[:, 0], np.fmax.reduce(a, axis=1))


# orjson writes a float64 with repr's shortest round-trip digits, and spells
# it as repr does for 1e-4 <= |x| < 1e16 and +-0.0. Outside that window
# _cells rewrites its text, with "," after every cell, to repr's spelling.
# Exponents (0 < |x| < 1e-5 and finite |x| >= 1e16) gain repr's "+" and the
# leading zero of a one-digit negative exponent: "1e16" -> "1e+16",
# "1e-7" -> "1e-07".
_EXPONENT_SPELLING = [(b"e", b"e+"), (b"e+-", b"e-")] + [(b"e-%d," % d, b"e-0%d," % d) for d in range(6, 10)]
# 1e-5 <= |x| < 1e-4, which orjson writes positionally and repr with exponent
# -5: "0.0000123" -> "1.23e-05", "0.00001" -> "1e-05".
_BAND_SPELLING = [(b"0.0000%d" % d, b"%d." % d) for d in range(1, 10)] + [(b",", b"e-05,"), (b".e", b"e")]


def _orjson_cells(vals: np.ndarray, rewrites: Sequence[tuple[bytes, bytes]] = ()) -> list[str]:
    """The cells of one orjson call on a contiguous numeric array, its text
    rewritten first."""
    if not len(vals):
        return []
    text = orjson.dumps(vals, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    for old, new in rewrites:
        text = text.replace(old, new)
    cells = text.decode().split(",")
    cells.pop()
    return cells


def _cells(vals: np.ndarray) -> list[str]:
    """The CSV cells of one int or float64 column block: the repr of each
    Python int or float it holds, formatted by one orjson call and never by
    a per-cell repr. A float64 block with cells outside repr's window gets
    them re-spelled by mask: the exponent cells and the 1e-5 <= |x| < 1e-4
    cells each from one more orjson call whose text is rewritten in bulk
    (_EXPONENT_SPELLING, _BAND_SPELLING), and NaN and +-inf, which orjson
    writes as null, as "nan", "inf" and "-inf"."""
    vals = np.ascontiguousarray(vals)
    cells = _orjson_cells(vals)
    if vals.dtype.kind != "f":
        return cells
    a = np.abs(vals)
    # most blocks lie inside repr's window (a NaN fails the max test)
    if a.min(where=a > 0, initial=math.inf) >= 1e-4 and a.max() < 1e16:
        return cells
    exponent = ((a > 0) & (a < 1e-5)) | ((a >= 1e16) & (a < math.inf))
    band = (a >= 1e-5) & (a < 1e-4)
    nonfinite = ~np.isfinite(vals)
    infs_nans = vals[nonfinite]
    respelled = (
        _orjson_cells(vals[exponent], _EXPONENT_SPELLING)
        + _orjson_cells(vals[band], _BAND_SPELLING)
        + np.where(np.isnan(infs_nans), "nan", np.where(infs_nans > 0, "inf", "-inf")).tolist()
    )
    for j, cell in zip(np.concatenate([np.flatnonzero(m) for m in (exponent, band, nonfinite)]).tolist(), respelled):
        cells[j] = cell
    return cells


def write_csv(path: str, header: Sequence[str], runs: Sequence[Sequence]) -> None:
    """Write a header line, then each run's rows, CSV_BLOCK_ROWS at a time so
    that at most one block of cells is held. A run lists its columns in
    header order: a NumPy column (int or float64, formatted by _cells) or one
    value all its rows share, formatted once; its row count is its NumPy
    columns' length. A cell is the repr of a Python int or float, or the
    string itself."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for cols in runs:
            rows = next((len(c) for c in cols if isinstance(c, np.ndarray)), 0)
            shared = [None if isinstance(c, np.ndarray) else c if isinstance(c, str) else repr(c)
                      for c in cols]
            for start in range(0, rows, CSV_BLOCK_ROWS):
                stop = min(start + CSV_BLOCK_ROWS, rows)
                cells = [_cells(col[start:stop]) if cell is None else [cell] * (stop - start)
                         for col, cell in zip(cols, shared)]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def export_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write trajectory.csv. With step records: one row per inner step. When
    records were disabled: one row per epoch boundary, marked i = -1 and
    tau = -1, with update_inf_norm = |w0 - w_prev|_inf (0.0 at k = 1).
    Every number is written as repr of a Python int or float (write_csv)."""
    d = len(traj.final_w)
    header = (
        ["k", "i", "tau"]
        + [f"w{l}" for l in range(d)]
        + ["grad_norm_epoch_start", "f_value", "update_inf_norm"]
    )
    e, s = traj.epochs, traj.steps
    if s:
        cols = [s.k, s.i, s.tau, *s.w_before.T, e.grad_norm[s.k - 1], s.f_value, _row_max(s.update_abs)]
    else:
        sentinel = np.full(len(e), -1)
        cols = [e.k, sentinel, sentinel, *e.w0.T, e.grad_norm, e.f_value, _row_max(np.abs(e.w0 - e.w_prev))]
    write_csv(path, header, [cols])


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-ready run summary (no timestamps)."""
    norms = traj.epochs.grad_norm.tolist()
    return {
        "algo": traj.algo,
        "status": traj.status,
        "fail_step": list(traj.fail_step) if traj.fail_step else None,
        "final_w": [repr(v) for v in traj.final_w],
        "epoch_snapshots": len(traj.epochs),
        "recorded_steps": len(traj.steps),
        "first_grad_norm": norms[0] if norms else None,
        "last_grad_norm": norms[-1] if norms else None,
        "min_grad_norm": min(norms) if norms else None,
        "tail_mean_grad_norm": tail_mean_grad_norm(traj),
        "params": traj.params,
        "objective": traj.objective_spec,
    }
