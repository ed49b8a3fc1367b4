"""Reshuffled Adam and (clipped) gradient-descent runners.

The Adam variant processes one component gradient per inner step, drawing a
fresh uniform permutation of the components at the start of every epoch.
First and second moment accumulators carry over across epoch boundaries; no
bias correction is applied anywhere. Step size schedules: eta_k = eta1 /
sqrt(k) ("Diminishing", k = epoch index from 1) or constant eta1.

adam_run has two loops with one update rule. An objective that carries an
``affine1`` pair (d = 1, component gradient coefs[j] * (x - centers[j]))
runs in one loop in adam_run's own frame, that gradient written inline;
any other objective runs adam_epoch, the generic loop, once per epoch.
adam_lockstep runs a group of such affine runs that share one permutation
stream as the lanes of one NumPy loop, each lane bit for bit adam_run's;
adam_run stays the oracle it is checked against.

Runs never raise on numerical blow-up: iterates are monitored and the
trajectory ends with status "Diverged" (sup-norm above 1e100, infinities
included) or "NonFinite" (NaN in the iterate), recording the failing step.

export_trajectory_csv and trajectory_summary decide which columns and keys
a run's artifacts hold; ``artifacts`` spells their numbers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, field
from typing import Literal, Optional, Sequence, TextIO

import numpy as np

from .artifacts import open_csv, write_rows
from .landscapes import FiniteSumObjective, _sum, check_point, to_spec
from .rng import SplitMix64, stream_for_run
from .schema import Beta1, Beta2, Count, Fraction, NonNegative, Positive, Seed, check

GUARD_SUP_NORM = 1e100

# Epoch permutations are drawn in blocks of at most this many stream draws.
PERM_BLOCK_DRAWS = 8192

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
class AdamArm:
    """Reshuffled Adam's hyperparameters, declared once: an experiment's Adam
    arm. xi is the denominator offset added to sqrt(nu); zero is allowed.
    Every field, a subclass's included, is checked against its declared type
    when the record is built (ValueError otherwise)."""

    beta1: Beta1 = 0.9
    beta2: Beta2 = 0.999
    eta1: Positive = 0.1
    xi: NonNegative = 1e-8
    schedule: Schedule = SCHEDULE_DIMINISHING
    init_mode: InitMode = INIT_PAPER_THEORY

    def __post_init__(self) -> None:
        check(type(self), **vars(self))


@dataclass(frozen=True)
class AdamParams(AdamArm):
    """A reshuffled-Adam run: an arm and the run's own fields. seed and
    run_index determine the permutation stream; distinct run_index values
    give independent streams under one seed."""

    epochs: Count = 100
    seed: Seed = 0
    run_index: Count = 0
    record_steps: bool = True


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


@dataclass(frozen=True, eq=False)
class EpochTable(_Table):
    """One row per epoch-boundary snapshot k = 1, 2, ...: w0 = w_{k,0},
    w_prev = the iterate one inner step earlier (equal to w0 at k = 1), and
    the full-gradient norm and objective value at w0, the value (and Adam's
    norm) evaluated after the run. Row k - 1 holds snapshot k."""

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
    (sqrt(nu_l) + xi) after the update, GD's |step_l|; the loops record the
    signed values and _trajectory takes their magnitude once. update_abs_l =
    eta_k * ratio_l is the realized move magnitude; f_value is the objective
    at w_before, evaluated after the run."""

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

    def epoch_start_norms(self) -> np.ndarray:
        """Gradient norms at epoch starts k = 1..T: a completed run's closing
        boundary snapshot is dropped, unless it is the only one (0 epochs)."""
        norms = self.epochs.grad_norm
        if self.status == STATUS_COMPLETED and len(norms) >= 2:
            return norms[:-1]
        return norms


def eta_schedule(eta1: float, schedule: str, count: int) -> np.ndarray:
    """The float64 column of step sizes of epochs (or GD steps) k = 1..count:
    eta1, or eta1 / sqrt(k). A run computes it once; its loop reads it as
    Python floats and its epoch table keeps it."""
    if schedule == SCHEDULE_CONSTANT:
        return np.full(count, eta1, dtype=np.float64)
    return eta1 / np.sqrt(np.arange(1, count + 1))


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
    eta: float,
    steps: Optional[dict[str, list]] = None,
) -> Optional[tuple[int, int]]:
    """Advance one epoch in place with step size eta, visiting the components
    in the order tau (a permutation of range(n)). When the step column lists
    ``steps`` are given, append tau to them once and each step's w_before and
    signed ratio r; _trajectory derives the rest of each row. Returns the
    (epoch, inner index) of the step whose result tripped the guard, or
    None. The generic loop: adam_run takes it for objectives without an
    ``affine1`` pair."""
    # Each step's iterate is the start point adam_init checked or one the
    # guard passed. The builder's callable is bound once per epoch: calling
    # the component_grad method per inner step made Fig3's run 7-10% slower
    # in CPU time.
    grad_fn = obj.grad_fn
    beta1, beta2, xi = params.beta1, params.beta2, params.xi
    one_m_b1 = 1.0 - beta1
    one_m_b2 = 1.0 - beta2
    k = state.k
    record = steps is not None
    if record:
        steps["tau"].extend(tau)
        add_w = steps["w_before"].extend
        add_ratio = steps["ratio"].append
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
                add_ratio(r)
        if tripped:
            state.k = k + 1
            return (k, i)
    state.k = k + 1
    return None


def _snapshot(state: AdamState, epochs: dict[str, list]) -> None:
    """Append the boundary snapshot's w0 and w_prev to the epoch column
    lists; _trajectory derives the rest of the row."""
    epochs["w0"].extend(state.w)
    epochs["w_prev"].extend(state.w_prev)


def _epoch_orders(stream: SplitMix64, n: int, epochs: int):
    """The component order of each epoch, drawn from the run's stream in
    blocks of at most PERM_BLOCK_DRAWS draws, so memory stays bounded on
    long runs."""
    block = max(1, PERM_BLOCK_DRAWS // n)
    for start in range(0, epochs, block):
        yield from stream.permutations(n, min(block, epochs - start))


def _trajectory(obj: FiniteSumObjective, algo: str, params: dict, etas: np.ndarray, snaps: dict,
                steps: dict, status: str, fail: Optional[tuple[int, int]], final_w: list[float]) -> Trajectory:
    """The Trajectory of a finished run, built from the columns only its
    loop knows (plain numbers, iterate rows flat; Adam's are lists, GD's
    are float arrays whose buffers become the NumPy columns uncopied):
    snapshot w0 and the signed step ratio, for GD snapshot grad_norm (its
    clipping reads it in the loop), and for Adam snapshot w_prev, step
    w_before and each epoch's order tau. Derived here:

    * epoch k = 1..rows, and eta: the run's eta_schedule column cut to them;
    * step ratio = |recorded ratio|, taken in place: np.abs only clears the
      sign bit, as Python's abs does, so the bits are those abs gives;
    * step (k - 1, i) = divmod(row, n), with one step per epoch for GD;
    * step update_abs = eta_k * ratio, bit for bit |eta_k * r| as eta_k >= 0;
    * for GD: tau = -1; step k starts from snapshot k, so w_before and
      f_value are views of the epoch columns; w_prev is w0 one row down;
    * both f_value columns through mean_values, and Adam's snapshot
      grad_norm through grad_norms.
    """
    d, adam = obj.d, algo == "adam"

    def matrix(vals) -> np.ndarray:
        return np.asarray(vals, dtype=np.float64).reshape(-1, d)

    w0 = matrix(snaps["w0"])
    k = np.arange(1, len(w0) + 1)
    epochs = EpochTable(
        k=k,
        eta=etas[:len(k)],
        w0=w0,
        w_prev=matrix(snaps["w_prev"]) if adam else np.concatenate([w0[:1], w0[:-1]]),
        grad_norm=obj.grad_norms(w0) if adam else np.asarray(snaps["grad_norm"], dtype=np.float64),
        f_value=obj.mean_values(w0),
    )
    ratio = matrix(steps["ratio"])
    np.abs(ratio, out=ratio)
    recorded = len(ratio)
    k0, i = np.divmod(np.arange(recorded), obj.n if adam else 1)
    if adam:
        # a lockstep group's lanes share one int64 tau column, uncopied
        tau = np.asarray(steps["tau"][:recorded], dtype=np.int64)
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
    (the final boundary only when the run completes).

    An objective with an ``affine1`` pair runs in the one loop below, its
    component gradient ``coefs[j] * (x - centers[j])`` written inline: the
    update, rule, guard and records of adam_epoch, on x, m, nu and the
    previous iterate held in locals. Every other objective runs one
    adam_epoch call per epoch. Neither loop takes a gradient norm: the
    snapshots' norms come from grad_norms after the run (_trajectory)."""
    state = adam_init(obj, w0, params)
    etas = eta_schedule(params.eta1, params.schedule, params.epochs + 1)
    snaps = {"w0": [], "w_prev": []}
    steps = {"tau": [], "w_before": [], "ratio": []}
    orders = zip(_epoch_orders(state.stream, obj.n, params.epochs), memoryview(etas))
    status = STATUS_COMPLETED
    fail: Optional[tuple[int, int]] = None

    if obj.affine1 is None:
        record = steps if params.record_steps else None
        for tau, eta in orders:
            _snapshot(state, snaps)
            fail = adam_epoch(state, obj, params, tau, eta, record)
            if fail is not None:
                status = _classify(state.w)
                break
        else:
            # closing boundary snapshot k = K+1
            _snapshot(state, snaps)
        return _trajectory(obj, "adam", asdict(params), etas, snaps, steps, status, fail, state.w)

    # One frame for the whole run. Against one adam_epoch and one _snapshot
    # call per epoch, this loop cut fig3_sweep's run_s from 0.662 to 0.516 s
    # and lemma_audit's from 0.348 to 0.297 s (BENCH_31_parent.json ->
    # BENCH_31.json).
    coefs, centers = obj.affine1
    beta1, beta2, xi = params.beta1, params.beta2, params.xi
    one_m_b1 = 1.0 - beta1
    one_m_b2 = 1.0 - beta2
    record = params.record_steps
    add_tau, add_w, add_ratio = steps["tau"].extend, steps["w_before"].append, steps["ratio"].append
    add_w0, add_prev = snaps["w0"].append, snaps["w_prev"].append
    sqrt, sup = math.sqrt, GUARD_SUP_NORM
    x, m, nu, x_prev = state.w[0], state.m[0], state.nu[0], state.w_prev[0]
    k = 1
    for tau, eta in orders:
        add_w0(x)
        add_prev(x_prev)
        if record:
            add_tau(tau)
        for j in tau:
            g = coefs[j] * (x - centers[j])
            if record:
                add_w(x)
            nu = beta2 * nu + one_m_b2 * g * g
            m = beta1 * m + one_m_b1 * g
            den = sqrt(nu) + xi
            r = m / den if den != 0.0 else 0.0  # as in adam_epoch
            x_prev = x
            x = x - eta * r
            if record:
                add_ratio(r)
            # true for NaN and for |x| above the bound, infinities included
            if not -sup <= x <= sup:
                break
        else:
            k += 1
            continue
        # the guard tripped on component j; tau is a permutation, so its
        # inner index is j's place in tau
        fail = (k, tau.index(j))
        status = _classify([x])
        break
    else:
        # closing boundary snapshot k = K+1
        add_w0(x)
        add_prev(x_prev)
    return _trajectory(obj, "adam", asdict(params), etas, snaps, steps, status, fail, [x])


def adam_lockstep(obj: FiniteSumObjective, w0: Sequence[float], lanes: Sequence[AdamParams]) -> list[Trajectory]:
    """adam_run of each of ``lanes`` on an objective with an ``affine1`` pair,
    the lanes advanced together in NumPy, one column per lane. The lanes
    share epochs, seed, run_index and record_steps, and with them one stream
    of epoch orders; they may differ in the arm's six fields. Returns the
    trajectories in lane order, each bit for bit adam_run's.

    A step is adam_run's update in its operation order, as in-place ufunc
    calls on arrays (float64 add, subtract, multiply, divide and sqrt round
    as Python's floats do): nu and m are one (2, lanes) state, so each of
    their updates is one call. Iterates and ratios are written into row
    views of preallocated (rows x lanes) arrays: every step's with
    record_steps, else one epoch's. The guard reads each epoch's block of
    iterates once; a lane it stops ends at adam_run's step, status and
    final iterate, and its columns are cut there. Each lane's columns reach
    _trajectory as views of the shared arrays, and _trajectory takes its
    snapshot norms from grad_norms."""
    n, R, epochs, record = obj.n, len(lanes), lanes[0].epochs, lanes[0].record_steps
    states = [adam_init(obj, w0, p) for p in lanes]
    # every operand is an array: at 24 lanes a ufunc call took about 0.4 us
    # on arrays and 0.6 us with a Python float operand
    coefs, centers = ([np.full(R, v, dtype=np.float64) for v in c] for c in obj.affine1)
    B = np.array([[p.beta2 for p in lanes], [p.beta1 for p in lanes]], dtype=np.float64)
    OMB = 1.0 - B
    XI = np.array([p.xi for p in lanes], dtype=np.float64)
    no_signal = not XI.all()  # only a lane with xi = 0 can have a zero denominator
    E = np.stack([eta_schedule(p.eta1, p.schedule, epochs + 1) for p in lanes], axis=1)
    S = np.array([[s.nu[0] for s in states], [s.m[0] for s in states]], dtype=np.float64)
    S_nu, S_m = S
    T = np.empty((2, R))
    T_nu = T[0]
    g, den, u, top = np.empty(R), np.empty(R), np.empty(R), np.empty((n, R))

    # row b holds the iterate one step before epoch k's start, row b + 1 its
    # start and row b + 2 + i the iterate after step i; with record_steps b
    # is (k - 1) * n, so row t + 1 is the w_before of step t, else every
    # epoch reuses rows 0 .. n + 1
    X = np.empty((n * epochs + 2 if record else n + 2, R))
    X[:2] = states[0].w[0]
    ratios = np.empty((n * epochs if record else n, R))
    W0, WP = np.empty((epochs + 1, R)), np.empty((epochs + 1, R))
    alive = np.ones(R, dtype=bool)
    ends: list[Optional[tuple[int, int, float]]] = [None] * R  # (k, i, x) where the guard stopped a lane
    taus: list[int] = []
    sup = GUARD_SUP_NORM
    b = 0
    with np.errstate(all="ignore"):  # overflow, inf - inf and 0 / 0, silent as on Python floats
        for k, tau in enumerate(_epoch_orders(states[0].stream, n, epochs), 1):
            W0[k - 1], WP[k - 1] = X[b + 1], X[b]
            if record:
                taus.extend(tau)
            eta = E[k - 1]
            rows = X[b + 1:b + n + 2]
            x = rows[0]
            for i, j in enumerate(tau):
                r = ratios[b + i]
                np.subtract(x, centers[j], g)
                np.multiply(coefs[j], g, g)
                np.multiply(OMB, g, T)
                np.multiply(T_nu, g, T_nu)
                np.multiply(B, S, S)
                np.add(S, T, S)
                np.sqrt(S_nu, den)
                np.add(den, XI, den)
                np.divide(S_m, den, r)
                if no_signal:
                    r[den == 0.0] = 0.0  # as in adam_epoch
                np.multiply(eta, r, u)
                x = rows[i + 1]
                np.subtract(rows[i], u, x)
            block = rows[1:]
            np.abs(block, top)
            # not <= is true for NaN and for |x| above the bound, infinities included
            if not top.max() <= sup:
                tripped = alive & ~(top <= sup).all(axis=0)
                for lane in np.flatnonzero(tripped).tolist():
                    i = int(np.argmin(top[:, lane] <= sup))
                    ends[lane] = (k, i, block[i, lane].item())
                alive &= ~tripped
                if not alive.any():
                    break
            if record:
                b += n
            else:
                X[:2] = X[n:]
        else:
            # closing boundary snapshot k = K+1 of the lanes that completed
            W0[epochs], WP[epochs] = X[b + 1], X[b]

    tau_col = np.array(taus, dtype=np.int64)
    out = []
    for lane, (params, end) in enumerate(zip(lanes, ends)):
        if end is None:
            snaps, recorded, x = epochs + 1, n * epochs, W0[epochs, lane].item()
            status, fail = STATUS_COMPLETED, None
        else:
            k, i, x = end
            snaps, recorded = k, (k - 1) * n + i + 1
            status, fail = _classify([x]), (k, i)
        cols = {"w0": W0[:snaps, lane], "w_prev": WP[:snaps, lane]}
        steps = {"tau": tau_col, "w_before": X[1:recorded + 1, lane], "ratio": ratios[:recorded, lane]} \
            if record else {"tau": [], "w_before": [], "ratio": []}
        out.append(_trajectory(obj, "adam", asdict(params), E[:, lane], cols, steps, status, fail, [x]))
    return out


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
    it exceeds it; a gradient whose finite coordinates have an overflowing
    norm is first divided by its largest |coordinate|, and one with a NaN
    coordinate is not clipped. Snapshots reuse the epoch structure with one
    inner step per epoch (i = 0, tau = -1). The loop records each
    snapshot's gradient norm and, in one pass over the coordinates, each
    coordinate's w0 and, with record_steps, its signed step step_l;
    _trajectory derives the rest, the ratio |step_l| included.
    """
    check(gd_run, eta1=eta1, steps=steps, schedule=schedule, clip_threshold=clip_threshold)
    w = check_point(obj, w0)
    d = obj.d
    snaps = {"w0": array("d"), "grad_norm": array("d")}
    recs = {"ratio": array("d")}
    status = STATUS_COMPLETED
    fail = None
    # Bound once per run, as in adam_epoch. full_grad stays the method, the
    # one the benchmark's tracer counts.
    full_grad, hypot, sup = obj.full_grad, math.hypot, GUARD_SUP_NORM
    add_w0, add_norm, add_ratio = snaps["w0"].append, snaps["grad_norm"].append, recs["ratio"].append
    coords = range(d)
    etas = eta_schedule(eta1, schedule, steps + 1)

    for k, eta in zip(range(1, steps + 1), memoryview(etas)):
        g = full_grad(w)
        gn = hypot(*g)
        add_norm(gn)
        step_vec = g
        if clip_threshold is not None and gn > clip_threshold:
            if math.isinf(gn) and not any(map(math.isinf, g)):
                # finite coordinates whose norm overflows: the same
                # direction, scaled to a largest |coordinate| of 1
                top = max(map(abs, g))
                g = [v / top for v in g]
                gn = hypot(*g)
            if math.isfinite(gn):
                c = clip_threshold / gn
                step_vec = [v * c for v in g]
            elif not any(map(math.isnan, g)):
                # direction only defined by the infinite coordinates (a NaN
                # partial is stepped unclipped, so the guard stops the run)
                infs = [l for l in range(d) if math.isinf(g[l])]
                scale = clip_threshold / math.sqrt(len(infs))
                step_vec = [
                    math.copysign(scale, g[l]) if l in infs else 0.0 for l in range(d)
                ]
        tripped = False
        for l in coords:
            w_l = w[l]
            add_w0(w_l)
            s = step_vec[l]
            if record_steps:
                add_ratio(s)
            v = w[l] = w_l - eta * s
            # true for NaN and for |v| above the bound, infinities included
            if not -sup <= v <= sup:
                tripped = True
        if tripped:
            status = _classify(w)
            fail = (k, 0)
            break
    else:
        # closing boundary snapshot k = steps + 1
        snaps["w0"].extend(w)
        add_norm(hypot(*full_grad(w)))

    params = {"eta1": eta1, "steps": steps, "schedule": schedule, "clip_threshold": clip_threshold}
    algo = "gd" if clip_threshold is None else "clipped_gd"
    return _trajectory(obj, algo, params, etas, snaps, recs, status, fail, w)


# ---------------------------------------------------------------------------
# derived sequences and summaries


def aux_sequence(traj: Trajectory, beta1: Beta1) -> np.ndarray:
    """Momentum-corrected epoch sequence u_k = (w_{k,0} - beta1 w_{k,-1}) /
    (1 - beta1), with w_{1,-1} taken as w_{1,0}. One row per snapshot."""
    check(aux_sequence, beta1=beta1)
    e = traj.epochs
    return (e.w0 - beta1 * e.w_prev) * (1.0 / (1.0 - beta1))


def tail_mean_grad_norm(traj: Trajectory, frac: Fraction = 0.1) -> float:
    """Mean epoch-start gradient norm over the last ceil-free max(1,
    floor(K * frac)) epochs k <= K (closing boundary snapshot excluded)."""
    check(tail_mean_grad_norm, frac=frac)
    norms = traj.epoch_start_norms()
    if not len(norms):
        return math.nan
    tail = norms[-max(1, int(len(norms) * frac)):].tolist()
    return _sum(tail) / len(tail)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Python's max() of each row of a (rows x d, d >= 1): a NaN wins only
    in the first column, later ones are skipped."""
    return np.where(np.isnan(a[:, 0]), a[:, 0], np.fmax.reduce(a, axis=1))


def export_trajectory_csv(traj: Trajectory, path: str, beside: Sequence[tuple[TextIO, Sequence]] = ()) -> None:
    """Write trajectory.csv. With step records: one row per inner step. When
    records were disabled: one row per epoch boundary, marked i = -1 and
    tau = -1, with update_inf_norm = |w0 - w_prev|_inf (0.0 at k = 1).
    Every number is written as repr of a Python int or float (write_rows).
    ``beside`` holds (open file, columns) parts of other files, this run's
    plot-table blocks, written in lockstep with it, so that a column they
    share is formatted once per block. The columns built here, a copy and a
    row max as long as the table, are freed when it returns."""
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
    with open_csv(path, header) as fh:
        write_rows([(fh, cols), *beside])


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-ready run summary (no timestamps). Only the norms it reports are
    boxed as Python floats: the least by Python's min, whose first value wins
    if it is NaN and which skips a later NaN."""
    norms = traj.epochs.grad_norm
    first = last = least = None
    if len(norms):
        first, last = norms[[0, -1]].tolist()
        least = first if math.isnan(first) else norms[np.nanargmin(norms)].item()
    return {
        "algo": traj.algo,
        "status": traj.status,
        "fail_step": list(traj.fail_step) if traj.fail_step else None,
        "final_w": [repr(v) for v in traj.final_w],
        "epoch_snapshots": len(traj.epochs),
        "recorded_steps": len(traj.steps),
        "first_grad_norm": first,
        "last_grad_norm": last,
        "min_grad_norm": least,
        "tail_mean_grad_norm": tail_mean_grad_norm(traj),
        "params": traj.params,
        "objective": traj.objective_spec,
    }
