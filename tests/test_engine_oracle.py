"""The reshuffled-Adam engine against a scalar reference, bit for bit.

The reference below is the engine as it was before its hot path was
tightened: one ``SplitMix64.permutation`` call per epoch, the checked
public objective methods on every step, and one record object per step and
per epoch. It is kept verbatim as the oracle, except that, like the engine,
it takes the no-signal branch only when the denominator is exactly zero, so
a NaN gradient ends the run NonFinite, and it keeps the epoch's permutation
and inner index in locals; do not optimize it.

The engine's whole-run loop, taken by objectives that carry an
``affine1`` pair, is checked against the same reference, including the
generic loop's no-signal branch and each way a run ends. The lockstep
engine that ``harness.run_cells`` takes for a large enough group of cells
on one stream is checked against ``run_arm`` of each cell, that scalar
loop, on every column, status, failing step and final iterate.

The engine stores its trajectory as NumPy columns; every stored column is
compared with the reference's records by repr. Two record fields are not
stored, because they are functions of stored columns: the component
gradient of a step is the gradient of component tau at w_before, and the
gradient norm at its epoch start is the norm in epoch row k - 1. Both are
recomputed from the columns and compared too.
"""

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import pytest
from hypothesis import event, given, settings, strategies as st

from adamlab import harness, optimizers
from adamlab.landscapes import (
    KIND_CUSTOM,
    FiniteSumObjective,
    lowerbound_objective,
    quadratic_sum,
    to_spec,
    zhang_counterexample,
)
from adamlab.optimizers import (
    GUARD_SUP_NORM,
    SCHEDULE_CONSTANT,
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    STATUS_NONFINITE,
    AdamParams,
    AdamState,
    Trajectory,
    adam_init,
    adam_run,
)

# ---------------------------------------------------------------- reference


@dataclass(slots=True)
class StepRecord:
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
    k: int
    eta: float
    w0: tuple
    w_prev: tuple
    m_prev: Optional[tuple]
    nu_prev: Optional[tuple]
    grad_norm: float
    f_value: float


@dataclass
class ReferenceTrajectory:
    algo: str
    params: dict
    objective_spec: Optional[dict]
    steps: list[StepRecord]
    epochs: list[EpochSnapshot]
    status: str
    fail_step: Optional[tuple[int, int]]
    final_w: tuple


def _classify(w: Sequence[float]) -> Optional[str]:
    """None if the iterate is acceptable, else a failure status."""
    for v in w:
        if math.isnan(v):
            return STATUS_NONFINITE
    for v in w:
        if abs(v) > GUARD_SUP_NORM:
            return STATUS_DIVERGED
    return None


def reference_eta(params: AdamParams, k: int) -> float:
    return params.eta1 if params.schedule == SCHEDULE_CONSTANT else params.eta1 / math.sqrt(k)


def reference_adam_epoch(
    state: AdamState,
    obj: FiniteSumObjective,
    params: AdamParams,
    grad_norm_epoch_start: float = math.nan,
) -> tuple[list[StepRecord], Optional[tuple[int, int]]]:
    n, d = obj.n, obj.d
    beta1, beta2, xi = params.beta1, params.beta2, params.xi
    one_m_b1 = 1.0 - beta1
    one_m_b2 = 1.0 - beta2
    eta = reference_eta(params, state.k)
    record = params.record_steps

    tau = state.stream.permutation(n)
    w, m, nu = state.w, state.m, state.nu
    records: list[StepRecord] = []
    k = state.k

    for i in range(n):
        j = tau[i]
        g = obj.component_grad(j, w)
        w_before = tuple(w) if record else None
        ratios = [0.0] * d
        upds = [0.0] * d
        for l in range(d):
            gl = g[l]
            nu[l] = beta2 * nu[l] + one_m_b2 * gl * gl
            m[l] = beta1 * m[l] + one_m_b1 * gl
            den = math.sqrt(nu[l]) + xi
            if den != 0.0:
                r = m[l] / den
            else:
                r = 0.0  # no signal ever seen on this coordinate
            upd = eta * r
            ratios[l] = abs(r)
            upds[l] = abs(upd)
            state.w_prev[l] = w[l]
            w[l] = w[l] - upd
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
                    f_value=obj.value(w_before),
                )
            )
        bad = _classify(w)
        if bad is not None:
            state.k = k + 1
            return records, (k, i)
    state.k = k + 1
    return records, None


def _reference_snapshot(state: AdamState, obj: FiniteSumObjective, params: AdamParams) -> EpochSnapshot:
    gn = math.hypot(*obj.full_grad(state.w))
    return EpochSnapshot(
        k=state.k,
        eta=reference_eta(params, state.k),
        w0=tuple(state.w),
        w_prev=tuple(state.w_prev),
        m_prev=tuple(state.m),
        nu_prev=tuple(state.nu),
        grad_norm=gn,
        f_value=obj.value(state.w),
    )


def reference_adam_run(obj: FiniteSumObjective, w0: Sequence[float], params: AdamParams) -> ReferenceTrajectory:
    state = adam_init(obj, w0, params)
    steps: list[StepRecord] = []
    snaps: list[EpochSnapshot] = []
    status = STATUS_COMPLETED
    fail: Optional[tuple[int, int]] = None

    for _ in range(params.epochs):
        snap = _reference_snapshot(state, obj, params)
        snaps.append(snap)
        records, fail = reference_adam_epoch(state, obj, params, grad_norm_epoch_start=snap.grad_norm)
        if params.record_steps:
            steps.extend(records)
        if fail is not None:
            status = _classify(state.w) or STATUS_DIVERGED
            break
    else:
        snaps.append(_reference_snapshot(state, obj, params))

    try:
        spec = to_spec(obj)
    except ValueError:
        spec = None
    return ReferenceTrajectory(
        algo="adam",
        params=asdict(params),
        objective_spec=spec,
        steps=steps,
        epochs=snaps,
        status=status,
        fail_step=fail,
        final_w=tuple(state.w),
    )


STEP_COLUMNS = {
    "k": "k", "i": "i", "tau": "tau_j", "w_before": "w_before",
    "ratio": "ratio", "update_abs": "update_abs", "f_value": "f_value",
}
EPOCH_COLUMNS = ("k", "eta", "w0", "w_prev", "grad_norm", "f_value")


def _plain(v):
    return list(v) if isinstance(v, tuple) else v


def assert_same_run(got: Trajectory, expected: ReferenceTrajectory, obj: FiniteSumObjective) -> None:
    """Every stored column equals the reference records by repr, which is
    exact for floats and tells NaN and -0.0 apart; so do the two record
    fields recomputed from the columns."""
    for col, field in STEP_COLUMNS.items():
        want = [_plain(getattr(s, field)) for s in expected.steps]
        assert repr(getattr(got.steps, col).tolist()) == repr(want), col
    for col in EPOCH_COLUMNS:
        want = [_plain(getattr(s, col)) for s in expected.epochs]
        assert repr(getattr(got.epochs, col).tolist()) == repr(want), col
    s = got.steps
    start_norms = got.epochs.grad_norm[s.k - 1].tolist()
    assert repr(start_norms) == repr([r.grad_norm_epoch_start for r in expected.steps])
    comp_grads = [tuple(obj.grad_fn(j, w)) for j, w in zip(s.tau.tolist(), s.w_before.tolist())]
    assert repr(comp_grads) == repr([r.comp_grad for r in expected.steps])
    assert (got.status, got.fail_step) == (expected.status, expected.fail_step)
    assert repr(got.final_w) == repr(expected.final_w)
    assert (got.algo, got.params, got.objective_spec) == (
        expected.algo, expected.params, expected.objective_spec,
    )


# ---------------------------------------------------------------- problems

finite = dict(allow_nan=False, allow_infinity=False)


def drift_objective(bound: float, past: float) -> FiniteSumObjective:
    """Three 1-d components whose gradients -1 - j/2 drift the iterate
    upward, and turn to ``past`` once it exceeds ``bound``. Not affine, so
    Adam runs its generic loop on it."""

    def grad_fn(j, w):
        return [-1.0 - 0.5 * j] if w[0] <= bound else [past]

    return FiniteSumObjective(
        KIND_CUSTOM, 3, 1, {}, value_fn=lambda j, w: (-1.0 - 0.5 * j) * w[0], grad_fn=grad_fn,
    )


@st.composite
def problems(draw):
    """(objective, start point) across the serializable kinds plus a custom
    objective that drifts the iterate upward at a constant gradient and
    turns its gradient non-finite past a bound, so runs fail at varied
    steps. The counterexample and the d = 1 QuadraticSum carry an affine1
    pair; a counterexample scale near the float range overflows its
    gradients, so those runs end NonFinite."""
    kind = draw(st.sampled_from(["zhang", "zhang", "quadratic", "lowerbound", "drift"]))
    if kind == "zhang":
        size = st.one_of(st.floats(0.1, 20.0, **finite), st.sampled_from([1e300, 1e308, 1.7e308]))
        scale = draw(size) * draw(st.sampled_from([1.0, -1.0]))
        return zhang_counterexample(scale), [draw(st.floats(-5.0, 5.0, **finite))]
    if kind == "quadratic":
        n = draw(st.integers(1, 5))
        d = draw(st.integers(1, 3))
        coords = st.floats(-5.0, 5.0, **finite)
        curv = draw(st.lists(st.floats(0.1, 10.0, **finite), min_size=n, max_size=n))
        centers = [draw(st.lists(coords, min_size=d, max_size=d)) for _ in range(n)]
        return quadratic_sum(curv, centers), draw(st.lists(coords, min_size=d, max_size=d))
    if kind == "lowerbound":
        obj = lowerbound_objective(
            draw(st.floats(0.5, 2.0, **finite)),
            draw(st.floats(0.5, 2.0, **finite)),
            draw(st.floats(1e-3, 0.5, **finite)),
        )
        return obj, [draw(st.floats(-3.0, 3.0, **finite)), draw(st.floats(-3.0, 3.0, **finite))]
    bound = draw(st.one_of(st.floats(0.5, 5.0, **finite), st.just(math.inf)))
    # -inf makes the update inf/inf, a NaN iterate; a NaN gradient makes
    # the moments, the update and the iterate NaN, so the run ends NonFinite
    past = draw(st.sampled_from([-math.inf, math.nan]))
    obj = drift_objective(bound, past)
    return obj, [draw(st.floats(-1.0, 0.5, **finite))]


adam_params = st.builds(
    AdamParams,
    beta1=st.floats(0.0, 0.99, **finite),
    beta2=st.floats(0.01, 0.9999, **finite),
    # small, large enough to overflow or go NaN mid-run, and past the guard
    eta1=st.one_of(st.floats(1e-3, 2.0, **finite), st.sampled_from([1e3, 1e99, 1e101])),
    xi=st.one_of(st.just(0.0), st.just(1e-8), st.floats(0.0, 1.0, **finite)),
    schedule=st.sampled_from(["Diminishing", "Constant"]),
    epochs=st.integers(0, 25),
    init_mode=st.sampled_from(["PaperTheory", "ZeroState"]),
    seed=st.integers(0, 2**32),
    run_index=st.integers(0, 100),
    record_steps=st.booleans(),
)


@given(problems(), adam_params, st.integers(1, 40))
@settings(max_examples=250, deadline=None)
def test_adam_run_matches_scalar_reference_bit_for_bit(problem, params, block_draws):
    # small permutation blocks put block boundaries inside short runs
    obj, w0 = problem
    expected = reference_adam_run(obj, w0, params)
    event(f"{'generic' if obj.affine1 is None else 'affine'} loop, status {expected.status}")
    saved = optimizers.PERM_BLOCK_DRAWS
    optimizers.PERM_BLOCK_DRAWS = block_draws
    try:
        got = adam_run(obj, w0, params)
    finally:
        optimizers.PERM_BLOCK_DRAWS = saved
    assert_same_run(got, expected, obj)


def test_adam_run_matches_reference_across_default_blocks():
    # longer than one default block of epochs for n = 10
    obj = zhang_counterexample()
    params = AdamParams(beta2=0.9, epochs=2000, seed=4, record_steps=False)
    assert_same_run(adam_run(obj, [-2.0], params), reference_adam_run(obj, [-2.0], params), obj)


def test_oracle_covers_every_status():
    # the strategies reach each status; pinned examples keep that visible
    zhang = zhang_counterexample()
    runs = {
        STATUS_COMPLETED: (zhang, [0.5], AdamParams(epochs=5)),
        STATUS_DIVERGED: (zhang, [0.5], AdamParams(eta1=1e101, epochs=5)),
        STATUS_NONFINITE: (
            lowerbound_objective(1.0, 1.0, 0.01),
            [3.0, 2.0],
            AdamParams(eta1=1e3, schedule="Constant", epochs=10, seed=3),
        ),
    }
    for status, (obj, w0, params) in runs.items():
        got, expected = adam_run(obj, w0, params), reference_adam_run(obj, w0, params)
        assert got.status == status
        assert_same_run(got, expected, obj)


@pytest.mark.parametrize("record_steps", [False, True])
@pytest.mark.parametrize("init_mode", ["PaperTheory", "ZeroState"])
@pytest.mark.parametrize("schedule", ["Diminishing", "Constant"])
def test_affine_loop_takes_the_no_signal_branch_on_an_all_zero_gradient(schedule, init_mode, record_steps):
    # both centers at the start point: every gradient is 0.0, so with xi = 0
    # every denominator is exactly zero and the iterate never moves
    obj = quadratic_sum([2.0, 3.0], [[0.5], [0.5]])
    assert obj.affine1 is not None
    params = AdamParams(xi=0.0, schedule=schedule, init_mode=init_mode, epochs=4, record_steps=record_steps)
    got = adam_run(obj, [0.5], params)
    assert_same_run(got, reference_adam_run(obj, [0.5], params), obj)
    assert got.status == STATUS_COMPLETED and got.final_w == (0.5,)
    assert len(got.steps) == (8 if record_steps else 0)
    assert not got.steps.ratio.any()


@pytest.mark.parametrize("record_steps", [False, True])
@pytest.mark.parametrize("obj, w0, params, status, fail_step", [
    (zhang_counterexample(), [0.5], AdamParams(epochs=5), STATUS_COMPLETED, None),
    # a step of 1e99 leaves the guard's bound on the second step of epoch 2
    (zhang_counterexample(), [-2.0], AdamParams(eta1=1e99, schedule="Constant", epochs=6, seed=4),
     STATUS_DIVERGED, (2, 1)),
    # component 0's gradient, finite at the start, overflows once the first
    # step moves the iterate to about -3e10; epoch 2 visits it second, where
    # inf / inf makes the step and the iterate NaN
    (quadratic_sum([1e300, 1.0], [[0.0], [0.0]]), [1e-147],
     AdamParams(eta1=1e10, schedule="Constant", init_mode="ZeroState", epochs=4, seed=0),
     STATUS_NONFINITE, (2, 1)),
], ids=["completed", "diverged", "nonfinite"])
def test_affine_loop_ends_each_run_where_the_reference_does(monkeypatch, obj, w0, params, status, fail_step,
                                                            record_steps):
    # one epoch per permutation block, so each failing run crosses a block
    # edge before it fails partway through an epoch
    monkeypatch.setattr(optimizers, "PERM_BLOCK_DRAWS", obj.n)
    params = replace(params, record_steps=record_steps)
    got = adam_run(obj, w0, params)
    assert obj.affine1 is not None
    assert (got.status, got.fail_step) == (status, fail_step)
    assert_same_run(got, reference_adam_run(obj, w0, params), obj)


@pytest.mark.parametrize("past, eta1, status", [
    (-math.inf, 0.1, STATUS_NONFINITE),
    (math.nan, 0.1, STATUS_NONFINITE),
    (-1.0, 1e99, STATUS_DIVERGED),
])
def test_generic_loop_ends_a_failing_run_where_the_reference_does(past, eta1, status):
    # the failure falls partway through an epoch
    params = AdamParams(eta1=eta1, schedule="Constant", epochs=20, seed=5)
    obj = drift_objective(3.0, past)
    got, expected = adam_run(obj, [0.0], params), reference_adam_run(obj, [0.0], params)
    assert_same_run(got, expected, obj)
    assert got.status == status
    assert got.fail_step[1] > 0


# ---------------------------------------------------------------- lockstep

LANES = harness.LOCKSTEP_MIN_LANES


def assert_same_trajectory(got: Trajectory, want: Trajectory) -> None:
    """Every table column, by repr, and the run's status, failing step, final
    iterate and records."""
    for table in ("steps", "epochs"):
        for col in getattr(want, table).__dataclass_fields__:
            a, b = getattr(getattr(got, table), col), getattr(getattr(want, table), col)
            assert a.dtype == b.dtype and repr(a.tolist()) == repr(b.tolist()), (table, col)
    assert (got.status, got.fail_step, repr(got.final_w)) == (want.status, want.fail_step, repr(want.final_w))
    assert (got.algo, got.params, got.objective_spec) == (want.algo, want.params, want.objective_spec)


def assert_cells_match_run_arm(obj, w0, cells, lockstep_lanes):
    """run_cells gives each cell run_arm's trajectory, and hands exactly
    ``lockstep_lanes`` of them, in groups, to adam_lockstep."""
    seen = []
    real = harness.adam_lockstep

    def counted(obj, w0, lanes):
        seen.append(len(lanes))
        return real(obj, w0, lanes)

    harness.adam_lockstep = counted
    try:
        got = harness.run_cells(obj, w0, cells)
    finally:
        harness.adam_lockstep = real
    assert sum(seen) == lockstep_lanes
    assert len(got) == len(cells)
    for traj, cell in zip(got, cells):
        assert_same_trajectory(traj, harness.run_arm(obj, w0, *cell))
    return got


def affine_problems():
    """(objective, start point) with an affine1 pair: the counterexample,
    at extreme scales among others, and a d = 1 QuadraticSum."""
    scale = st.one_of(st.floats(0.1, 20.0, **finite), st.sampled_from([1e150, 1e300, 1e308, 1.7e308]))
    zhang = st.tuples(
        st.builds(zhang_counterexample, st.tuples(scale, st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])),
        st.lists(st.floats(-5.0, 5.0, **finite), min_size=1, max_size=1),
    )
    quadratic = st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.builds(quadratic_sum, st.lists(st.floats(0.1, 1e300, **finite), min_size=n, max_size=n),
                  st.lists(st.lists(st.floats(-5.0, 5.0, **finite), min_size=1, max_size=1), min_size=n, max_size=n)),
        st.lists(st.floats(-1e10, 1e10, **finite), min_size=1, max_size=1),
    ))
    return st.one_of(zhang, quadratic)


adam_arms = st.builds(
    optimizers.AdamArm,
    beta1=st.floats(0.0, 0.99, **finite),
    beta2=st.floats(0.01, 0.9999, **finite),
    # small, large enough to overflow or go NaN mid-run, and past the guard
    eta1=st.one_of(st.floats(1e-3, 2.0, **finite), st.sampled_from([1e3, 1e10, 1e99, 1e101])),
    xi=st.one_of(st.just(0.0), st.just(1e-8), st.floats(0.0, 1.0, **finite)),
    schedule=st.sampled_from(["Diminishing", "Constant"]),
    init_mode=st.sampled_from(["PaperTheory", "ZeroState"]),
)


@given(
    affine_problems(),
    st.lists(adam_arms, min_size=LANES - 1, max_size=LANES + 2),
    st.integers(0, 12),
    st.integers(0, 2**32),
    st.booleans(),
    st.lists(st.tuples(adam_arms, st.integers(0, 3), st.integers(0, 3), st.booleans()), max_size=2),
    st.randoms(use_true_random=False),
    st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_run_cells_matches_run_arm_bit_for_bit(problem, arms, budget, seed, record, others, rnd, block_draws):
    # one group of LANES - 1 to LANES + 2 cells that share a stream, beside
    # cells of other streams and a GD cell, in a drawn order; small
    # permutation blocks put block edges inside short runs
    obj, w0 = problem
    cells = [(arm, budget, seed, record) for arm in arms] + others + [(harness.GdOptions(0.1), budget, 0, record)]
    rnd.shuffle(cells)
    saved = optimizers.PERM_BLOCK_DRAWS
    optimizers.PERM_BLOCK_DRAWS = block_draws
    try:
        in_group = len(arms) + sum(cell[1:] == (budget, seed, record) for cell in others)
        got = assert_cells_match_run_arm(obj, w0, cells, in_group if in_group >= LANES else 0)
    finally:
        optimizers.PERM_BLOCK_DRAWS = saved
    event(f"lockstep {in_group >= LANES}, statuses {sorted({t.status for t in got})}")


@pytest.mark.parametrize("lanes", [LANES - 1, LANES])
@pytest.mark.parametrize("record_steps, epochs, block_draws", [
    (False, 900, optimizers.PERM_BLOCK_DRAWS), (True, 90, 100),
])
def test_a_group_takes_lockstep_from_its_lane_count(monkeypatch, lanes, record_steps, epochs, block_draws):
    # the default LemmaSuite grid's arms, cycled; without step records, 900
    # epochs of n = 10 cross the default permutation block of 819 epochs,
    # and with them 90 epochs cross eight blocks of 10
    monkeypatch.setattr(optimizers, "PERM_BLOCK_DRAWS", block_draws)
    grid = [optimizers.AdamArm(b1, b2, eta1, 1e-8, schedule)
            for b1 in (0.0, 0.5, 0.9) for b2 in (0.99, 0.999) for eta1 in (0.01, 0.1)
            for schedule in ("Diminishing", "Constant")]
    cells = [(grid[c % len(grid)], epochs, 7, record_steps) for c in range(lanes)]
    assert epochs > block_draws // 10
    assert_cells_match_run_arm(zhang_counterexample(), [-2.0], cells, lanes if lanes >= LANES else 0)


@pytest.mark.parametrize("record_steps", [False, True])
def test_lockstep_takes_the_no_signal_branch_where_xi_is_zero(record_steps):
    # both centers at the start point: every gradient is 0.0, so each lane
    # with xi = 0 has a zero denominator on every step and never moves
    obj = quadratic_sum([2.0, 3.0], [[0.5], [0.5]])
    arms = [optimizers.AdamArm(0.9, 0.99, eta1, xi, schedule, init_mode)
            for eta1 in (0.1, 1.0) for xi in (0.0, 1e-8) for schedule in ("Diminishing", "Constant")
            for init_mode in ("PaperTheory", "ZeroState")]
    cells = [(arm, 5, 3, record_steps) for arm in (arms * 2)[:LANES]]
    got = assert_cells_match_run_arm(obj, [0.5], cells, LANES)
    assert all(t.final_w == (0.5,) and not t.steps.ratio.any() for t in got)


@pytest.mark.parametrize("record_steps", [False, True])
def test_lockstep_ends_each_lane_where_run_arm_does(monkeypatch, record_steps):
    # lanes that diverge or go NaN at different (k, i) beside lanes that
    # complete; one epoch per permutation block
    monkeypatch.setattr(optimizers, "PERM_BLOCK_DRAWS", 2)
    obj = quadratic_sum([1e300, 1.0], [[0.0], [0.0]])
    etas = [1e-3, 0.1, 1e3, 1e10, 3e10, 1e50, 1e99, 1e101, 1e150, 1e200]
    arms = [optimizers.AdamArm(0.5, 0.9, eta1, 1e-8, schedule, "ZeroState")
            for eta1 in etas for schedule in ("Diminishing", "Constant")]
    cells = [(arm, 6, 0, record_steps) for arm in arms]
    got = assert_cells_match_run_arm(obj, [1e-147], cells, len(cells))
    assert {t.status for t in got} == {STATUS_COMPLETED, STATUS_DIVERGED, STATUS_NONFINITE}
    assert len({t.fail_step for t in got}) >= 3


def test_lockstep_group_where_every_lane_fails():
    # each lane leaves the guard's bound on step 0, 1 or 2 of epoch 1, so
    # the loop stops before the closing snapshot
    arms = [optimizers.AdamArm(b1, 0.99, eta1, 1e-8, schedule) for b1 in (0.0, 0.5) for eta1 in (1e99, 1e100, 1e101)
            for schedule in ("Diminishing", "Constant")]
    cells = [(arm, 50, 4, True) for arm in (arms * 2)[:LANES]]
    got = assert_cells_match_run_arm(zhang_counterexample(), [-2.0], cells, LANES)
    assert all(t.status == STATUS_DIVERGED for t in got)
    assert {t.fail_step for t in got} == {(1, 0), (1, 1), (1, 2)}
