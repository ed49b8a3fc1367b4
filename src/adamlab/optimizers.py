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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .landscapes import FiniteSumObjective, to_spec
from .rng import SplitMix64, stream_for_run

GUARD_SUP_NORM = 1e100

# Epoch permutations are drawn in blocks of at most this many stream draws.
PERM_BLOCK_DRAWS = 8192

SCHEDULE_DIMINISHING = "Diminishing"
SCHEDULE_CONSTANT = "Constant"
INIT_PAPER_THEORY = "PaperTheory"
INIT_ZERO_STATE = "ZeroState"

STATUS_COMPLETED = "Completed"
STATUS_DIVERGED = "Diverged"
STATUS_NONFINITE = "NonFinite"


@dataclass(frozen=True)
class AdamParams:
    """Hyperparameters for a reshuffled-Adam run.

    xi is the denominator offset added to sqrt(nu); zero is allowed. seed and
    run_index determine the permutation stream; distinct run_index values
    give independent streams under one seed.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eta1: float = 0.1
    xi: float = 1e-8
    schedule: str = SCHEDULE_DIMINISHING
    epochs: int = 100
    init_mode: str = INIT_PAPER_THEORY
    seed: int = 0
    run_index: int = 0
    record_steps: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must be in [0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must be in (0, 1)")
        if not (math.isfinite(self.eta1) and self.eta1 > 0.0):
            raise ValueError("eta1 must be positive and finite")
        if not (self.xi >= 0.0 and math.isfinite(self.xi)):
            raise ValueError("xi must be finite and >= 0")
        if self.schedule not in (SCHEDULE_DIMINISHING, SCHEDULE_CONSTANT):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.init_mode not in (INIT_PAPER_THEORY, INIT_ZERO_STATE):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.seed < 0 or self.run_index < 0:
            raise ValueError("seed and run_index must be >= 0")

    def to_dict(self) -> dict:
        return {
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eta1": self.eta1,
            "xi": self.xi,
            "schedule": self.schedule,
            "epochs": self.epochs,
            "init_mode": self.init_mode,
            "seed": self.seed,
            "run_index": self.run_index,
            "record_steps": self.record_steps,
        }


@dataclass
class AdamState:
    """Mutable optimizer state between inner steps."""

    w: list[float]
    m: list[float]
    nu: list[float]
    k: int
    i: int
    tau: list[int]
    stream: SplitMix64
    w_prev: list[float] = field(default_factory=list)  # iterate one step back


@dataclass(slots=True)
class StepRecord:
    """One inner step. ratio[l] = |m_l| / (sqrt(nu_l) + xi) after the update;
    update_abs[l] = eta_k * ratio[l] is the realized move magnitude."""

    k: int
    i: int
    tau_j: int
    w_before: tuple
    grad_norm_epoch_start: float
    comp_grad: tuple
    ratio: tuple
    update_abs: tuple
    f_value: float


@dataclass(slots=True)
class EpochSnapshot:
    """State at an epoch boundary: w0 = w_{k,0}, w_prev = the iterate one
    inner step earlier (equal to w0 at k = 1), carried moments, full-gradient
    norm and objective value at w0."""

    k: int
    eta: float
    w0: tuple
    w_prev: tuple
    m_prev: Optional[tuple]
    nu_prev: Optional[tuple]
    grad_norm: float
    f_value: float


@dataclass
class Trajectory:
    algo: str  # "adam" | "gd" | "clipped_gd"
    params: dict
    objective_spec: Optional[dict]
    steps: list[StepRecord]
    epochs: list[EpochSnapshot]
    status: str
    fail_step: Optional[tuple[int, int]]
    final_w: tuple

    def epoch_grad_norms(self) -> list[float]:
        return [s.grad_norm for s in self.epochs]

    def completed_epochs(self) -> int:
        # final boundary snapshot (k = K+1) exists only for completed runs
        if self.status == STATUS_COMPLETED and self.epochs:
            return self.epochs[-1].k - 1
        return len(self.epochs)

    def epoch_starts(self) -> list[EpochSnapshot]:
        """Snapshots at epoch starts k = 1..T: a completed run's closing
        boundary snapshot is dropped, unless it is the only one (0 epochs)."""
        if self.status == STATUS_COMPLETED and len(self.epochs) >= 2:
            return self.epochs[:-1]
        return self.epochs


def eta_schedule(eta1: float, schedule: str, k: int) -> float:
    """Step size of epoch (or GD step) k >= 1."""
    if schedule == SCHEDULE_CONSTANT:
        return eta1
    return eta1 / math.sqrt(k)


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
    params.validate()
    if len(w0) != obj.d:
        raise ValueError("w0 dimension mismatch")
    w = [float(v) for v in w0]
    for v in w:
        if not math.isfinite(v):
            raise ValueError("non-finite start point")
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
    return AdamState(w=w, m=m, nu=nu, k=1, i=0, tau=[], stream=stream, w_prev=list(w))


def adam_epoch(
    state: AdamState,
    obj: FiniteSumObjective,
    params: AdamParams,
    tau: list[int],
    grad_norm_epoch_start: float = math.nan,
) -> tuple[list[StepRecord], Optional[tuple[int, int]]]:
    """Advance one epoch in place, visiting the components in the order tau
    (a permutation of range(n)). Returns (records, fail) where fail is the
    (epoch, inner index) of the step whose result tripped the guard, or None.

    The iterate entering each step is the start point adam_init validated
    or one the guard passed, so components are evaluated unchecked."""
    d = obj.d
    grad_fn = obj._grad_fn
    beta1, beta2, xi = params.beta1, params.beta2, params.xi
    one_m_b1 = 1.0 - beta1
    one_m_b2 = 1.0 - beta2
    k = state.k
    eta = eta_schedule(params.eta1, params.schedule, k)
    record = params.record_steps
    sqrt, sup = math.sqrt, GUARD_SUP_NORM
    coords = range(d)

    state.tau = tau
    w, m, nu, w_prev = state.w, state.m, state.nu, state.w_prev
    records: list[StepRecord] = []

    for i, j in enumerate(tau):
        g = grad_fn(j, w)
        if record:
            w_before = tuple(w)
            ratios = [0.0] * d
            upds = [0.0] * d
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
            upd = eta * r
            w_l = w_prev[l] = w[l]
            w_l = w[l] = w_l - upd
            # true for NaN and for |w_l| above the bound, infinities included
            if not abs(w_l) <= sup:
                tripped = True
            if record:
                ratios[l] = abs(r)
                upds[l] = abs(upd)
        if record:
            records.append(
                StepRecord(
                    k=k,
                    i=i,
                    tau_j=j,
                    w_before=w_before,
                    grad_norm_epoch_start=grad_norm_epoch_start,
                    comp_grad=tuple(g),
                    ratio=tuple(ratios),
                    update_abs=tuple(upds),
                    f_value=obj._mean_value(w_before),
                )
            )
        if tripped:
            state.k = k + 1
            state.i = i
            return records, (k, i)
    state.k = k + 1
    state.i = 0
    return records, None


def _snapshot(state: AdamState, obj: FiniteSumObjective, params: AdamParams) -> EpochSnapshot:
    gn = math.hypot(*obj._mean_grad(state.w))
    return EpochSnapshot(
        k=state.k,
        eta=eta_schedule(params.eta1, params.schedule, state.k),
        w0=tuple(state.w),
        w_prev=tuple(state.w_prev),
        m_prev=tuple(state.m),
        nu_prev=tuple(state.nu),
        grad_norm=gn,
        f_value=obj._mean_value(state.w),
    )


def _epoch_orders(stream: SplitMix64, n: int, epochs: int):
    """The component order of each epoch, drawn from the run's stream in
    blocks of at most PERM_BLOCK_DRAWS draws, so memory stays bounded on
    long runs."""
    block = max(1, PERM_BLOCK_DRAWS // n)
    for start in range(0, epochs, block):
        yield from stream.permutations(n, min(block, epochs - start))


def adam_run(obj: FiniteSumObjective, w0: Sequence[float], params: AdamParams) -> Trajectory:
    """Full reshuffled-Adam run with epoch-boundary snapshots for k = 1..K+1
    (the final boundary only when the run completes)."""
    state = adam_init(obj, w0, params)
    steps: list[StepRecord] = []
    snaps: list[EpochSnapshot] = []
    status = STATUS_COMPLETED
    fail: Optional[tuple[int, int]] = None

    for tau in _epoch_orders(state.stream, obj.n, params.epochs):
        snap = _snapshot(state, obj, params)
        snaps.append(snap)
        records, fail = adam_epoch(state, obj, params, tau, grad_norm_epoch_start=snap.grad_norm)
        if params.record_steps:
            steps.extend(records)
        if fail is not None:
            status = _classify(state.w) or STATUS_DIVERGED
            break
    else:
        # closing boundary snapshot k = K+1
        snaps.append(_snapshot(state, obj, params))

    try:
        spec = to_spec(obj)
    except ValueError:
        spec = None
    return Trajectory(
        algo="adam",
        params=params.to_dict(),
        objective_spec=spec,
        steps=steps,
        epochs=snaps,
        status=status,
        fail_step=fail,
        final_w=tuple(state.w),
    )


# ---------------------------------------------------------------------------
# gradient descent


def gd_run(
    obj: FiniteSumObjective,
    w0: Sequence[float],
    eta1: float,
    steps: int,
    schedule: str = SCHEDULE_CONSTANT,
    clip_threshold: Optional[float] = None,
    record_steps: bool = True,
) -> Trajectory:
    """Full-gradient descent w <- w - eta_k grad f(w), one snapshot per step.

    With clip_threshold the gradient is rescaled to that Euclidean norm when
    it exceeds it. Snapshots reuse the epoch structure with one inner step
    per epoch (i = 0, tau = -1); moment fields are None.
    """
    if not (math.isfinite(eta1) and eta1 > 0):
        raise ValueError("eta1 must be positive and finite")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if clip_threshold is not None and not (clip_threshold > 0):
        raise ValueError("clip_threshold must be positive")
    if schedule not in (SCHEDULE_DIMINISHING, SCHEDULE_CONSTANT):
        raise ValueError(f"unknown schedule {schedule!r}")

    if len(w0) != obj.d:
        raise ValueError("w0 dimension mismatch")
    w = [float(v) for v in w0]
    for v in w:
        if not math.isfinite(v):
            raise ValueError("non-finite start point")
    # every later iterate has passed the guard, so the objective is
    # evaluated unchecked
    d = obj.d
    recs: list[StepRecord] = []
    snaps: list[EpochSnapshot] = []
    status = STATUS_COMPLETED
    fail = None
    w_prev = list(w)

    for k in range(1, steps + 2):
        eta = eta_schedule(eta1, schedule, k)
        g = obj._mean_grad(w)
        gn = math.hypot(*g)
        f = obj._mean_value(w)
        snaps.append(
            EpochSnapshot(
                k=k,
                eta=eta,
                w0=tuple(w),
                w_prev=tuple(w_prev),
                m_prev=None,
                nu_prev=None,
                grad_norm=gn,
                f_value=f,
            )
        )
        if k > steps:
            break  # closing boundary snapshot k = steps + 1
        step_vec = list(g)
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
        upds = [eta * v for v in step_vec]
        if record_steps:
            recs.append(
                StepRecord(
                    k=k,
                    i=0,
                    tau_j=-1,
                    w_before=tuple(w),
                    grad_norm_epoch_start=gn,
                    comp_grad=tuple(g),
                    ratio=tuple(abs(v) for v in step_vec),
                    update_abs=tuple(abs(u) for u in upds),
                    f_value=f,
                )
            )
        w_prev = list(w)
        for l in range(d):
            w[l] = w[l] - upds[l]
        bad = _classify(w)
        if bad is not None:
            status = bad
            fail = (k, 0)
            break

    try:
        spec = to_spec(obj)
    except ValueError:
        spec = None
    return Trajectory(
        algo="gd" if clip_threshold is None else "clipped_gd",
        params={
            "eta1": eta1,
            "steps": steps,
            "schedule": schedule,
            "clip_threshold": clip_threshold,
        },
        objective_spec=spec,
        steps=recs,
        epochs=snaps,
        status=status,
        fail_step=fail,
        final_w=tuple(w),
    )


# ---------------------------------------------------------------------------
# derived sequences and summaries


def aux_sequence(traj: Trajectory, beta1: float) -> list[tuple]:
    """Momentum-corrected epoch sequence u_k = (w_{k,0} - beta1 w_{k,-1}) /
    (1 - beta1), with w_{1,-1} taken as w_{1,0}. One entry per snapshot."""
    if not 0.0 <= beta1 < 1.0:
        raise ValueError("beta1 must be in [0, 1)")
    out = []
    inv = 1.0 / (1.0 - beta1)
    for s in traj.epochs:
        out.append(tuple((s.w0[l] - beta1 * s.w_prev[l]) * inv for l in range(len(s.w0))))
    return out


def tail_mean_grad_norm(traj: Trajectory, frac: float = 0.1) -> float:
    """Mean epoch-start gradient norm over the last ceil-free max(1,
    floor(K * frac)) epochs k <= K (closing boundary snapshot excluded)."""
    norms = [s.grad_norm for s in traj.epoch_starts()]
    if not norms:
        return math.nan
    count = max(1, int(len(norms) * frac))
    tail = norms[-count:]
    return math.fsum(tail) / len(tail)


def export_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write trajectory.csv. With step records: one row per inner step. When
    records were disabled: one row per epoch boundary, marked i = -1 and
    tau = -1, with update_inf_norm = |w0 - w_prev|_inf (0.0 at k = 1)."""
    d = len(traj.final_w)
    header = (
        ["k", "i", "tau"]
        + [f"w{l}" for l in range(d)]
        + ["grad_norm_epoch_start", "f_value", "update_inf_norm"]
    )
    lines = [",".join(header)]
    if traj.steps:
        for s in traj.steps:
            row = [str(s.k), str(s.i), str(s.tau_j)]
            row += [repr(v) for v in s.w_before]
            row += [repr(s.grad_norm_epoch_start), repr(s.f_value)]
            row.append(repr(max(s.update_abs) if s.update_abs else 0.0))
            lines.append(",".join(row))
    else:
        for s in traj.epochs:
            row = [str(s.k), "-1", "-1"]
            row += [repr(v) for v in s.w0]
            row += [repr(s.grad_norm), repr(s.f_value)]
            move = max(abs(s.w0[l] - s.w_prev[l]) for l in range(d)) if d else 0.0
            row.append(repr(move))
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-ready run summary (no timestamps)."""
    norms = traj.epoch_grad_norms()
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
