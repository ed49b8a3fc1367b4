import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adamlab.landscapes import custom_objective, lowerbound_objective, quadratic_sum, zhang_counterexample
from adamlab.optimizers import (
    INIT_PAPER_THEORY,
    INIT_ZERO_STATE,
    SCHEDULE_CONSTANT,
    SCHEDULE_DIMINISHING,
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    STATUS_NONFINITE,
    AdamParams,
    adam_epoch,
    adam_init,
    adam_run,
    aux_sequence,
    eta_schedule,
    export_trajectory_csv,
    gd_run,
    tail_mean_grad_norm,
    trajectory_summary,
)
from adamlab.rng import stream_for_run


def params(**kw):
    base = dict(
        beta1=0.9,
        beta2=0.999,
        eta1=0.01,
        xi=1e-8,
        schedule=SCHEDULE_DIMINISHING,
        epochs=3,
        init_mode=INIT_ZERO_STATE,
        seed=1,
        run_index=0,
        record_steps=True,
    )
    base.update(kw)
    return AdamParams(**base)


def test_eta_schedule():
    assert eta_schedule(0.1, SCHEDULE_DIMINISHING, 1) == pytest.approx(0.1)
    assert eta_schedule(0.1, SCHEDULE_DIMINISHING, 4) == pytest.approx(0.05)
    assert eta_schedule(0.1, SCHEDULE_CONSTANT, 9) == pytest.approx(0.1)
    # the column form holds the scalar's values, by repr (an int eta1 stays
    # an int under the constant schedule)
    k = np.arange(1, 20_001)
    for eta1 in (0.1, 3, 2.0 ** 0.5, 7e-300, 1.5e300):
        for schedule in (SCHEDULE_DIMINISHING, SCHEDULE_CONSTANT):
            column = eta_schedule(eta1, schedule, k).tolist()
            assert repr(column) == repr([eta_schedule(eta1, schedule, j) for j in k.tolist()])


def test_param_validation():
    # a value outside its declared range or type is refused when the record
    # is built, with the field's name
    for field, bad in (
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 0.0), ("beta2", 1.0), ("eta1", 0.0),
        ("eta1", math.inf), ("xi", -1e-9), ("xi", math.nan), ("schedule", "linear"),
        ("init_mode", "zero"), ("epochs", -1), ("epochs", 2.0), ("seed", -1), ("seed", True),
        ("seed", np.int64(1)), ("run_index", -1),
    ):
        with pytest.raises(ValueError, match=f"^{field}: expected"):
            params(**{field: bad})
    params(xi=0.0, beta1=0.0)


def test_single_step_matches_hand_simulation():
    # one component, one epoch: the whole update is computable by hand
    obj = quadratic_sum([2.0], [[3.0]], known_D0_D1=(0.0, 1.0))
    p = params(beta1=0.5, beta2=0.9, eta1=0.1, xi=0.0, epochs=1)
    traj = adam_run(obj, [1.0], p)
    g = 2.0 * (1.0 - 3.0)  # -4
    nu = 0.1 * g * g
    m = 0.5 * g
    expected = 1.0 - 0.1 * m / math.sqrt(nu)
    assert traj.status == STATUS_COMPLETED
    assert len(traj.steps) == 1
    assert traj.steps.w_before[0, 0] == 1.0
    assert traj.epochs.w0[-1, 0] == pytest.approx(expected, rel=1e-15)
    assert traj.final_w[0] == pytest.approx(expected, rel=1e-15)


def test_paper_theory_init_seeds_state_from_start_point():
    obj = zhang_counterexample(1.0)
    w0 = [2.0]
    state = adam_init(obj, w0, params(init_mode=INIT_PAPER_THEORY, epochs=1))
    # first moment starts at component-0 gradient, second at the largest
    # squared per-component partial
    g0 = obj.component_grad(0, w0)[0]
    worst = max(obj.component_grad(j, w0)[0] ** 2 for j in range(obj.n))
    assert state.m[0] == pytest.approx(g0, rel=1e-15)
    assert state.nu[0] == pytest.approx(worst, rel=1e-15)


def test_zero_state_init():
    state = adam_init(zhang_counterexample(1.0), [2.0], params(epochs=1))
    assert state.m == [0.0] and state.nu == [0.0]


def test_state_carries_over_between_epochs():
    # moments are not reset at epoch boundaries: folding epoch 2's recorded
    # gradients into the state after epoch 1 reproduces the state after
    # epoch 2
    obj = zhang_counterexample(1.0)
    p = params(epochs=2, beta1=0.3, beta2=0.99, eta1=0.05)
    state = adam_init(obj, [0.5], p)
    adam_epoch(state, obj, p, state.stream.permutation(obj.n))
    assert abs(state.m[0]) > 0.0
    assert state.nu[0] > 0.0
    m, nu, w_start = state.m[0], state.nu[0], state.w[0]
    steps = {"tau": [], "w_before": [], "ratio": []}
    adam_epoch(state, obj, p, state.stream.permutation(obj.n), steps)
    for j, w in zip(steps["tau"], steps["w_before"]):
        # the component gradient each step used, at the iterate it started from
        g = obj.component_grad(j, [w])[0]
        nu = 0.99 * nu + 0.01 * g * g
        m = 0.3 * m + 0.7 * g
    assert state.k == 3
    assert state.m[0] == pytest.approx(m, rel=1e-12)
    assert state.nu[0] == pytest.approx(nu, rel=1e-12)
    assert steps["w_before"][0] == w_start


def test_each_epoch_uses_a_fresh_permutation_of_all_components():
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [0.9], params(epochs=4))
    for k in range(1, 5):
        taus = traj.steps.tau[traj.steps.k == k].tolist()
        assert sorted(taus) == list(range(10))


def test_permutations_reproducible_across_runs():
    obj = zhang_counterexample(1.0)
    p = params(epochs=3, seed=77)
    t1 = adam_run(obj, [0.9], p)
    t2 = adam_run(obj, [0.9], p)
    assert t1.steps.tau.tolist() == t2.steps.tau.tolist()
    assert t1.final_w[0] == t2.final_w[0]
    t3 = adam_run(obj, [0.9], params(epochs=3, seed=78))
    assert t1.steps.tau.tolist() != t3.steps.tau.tolist()


def test_permutation_stream_matches_published_rng_contract():
    # the shuffle for epoch k is drawn from the run stream in epoch order
    obj = zhang_counterexample(1.0)
    p = params(epochs=2, seed=5, run_index=3)
    traj = adam_run(obj, [0.9], p)
    stream = stream_for_run(5, 3)
    exp1 = stream.permutation(10)
    exp2 = stream.permutation(10)
    assert traj.steps.tau[traj.steps.k == 1].tolist() == list(exp1)
    assert traj.steps.tau[traj.steps.k == 2].tolist() == list(exp2)


def test_zero_epochs_records_single_boundary_snapshot():
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.5], params(epochs=0))
    assert traj.status == STATUS_COMPLETED
    assert len(traj.epochs) == 1
    assert traj.epochs.k.tolist() == [1]
    assert len(traj.steps) == 0
    # GD's one loop takes only the closing snapshot when there is no step
    gd = gd_run(obj, [1.5], eta1=0.1, steps=0)
    assert gd.status == STATUS_COMPLETED
    assert gd.epochs.k.tolist() == [1]
    assert len(gd.steps) == 0


def test_completed_run_has_closing_snapshot():
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.5], params(epochs=3))
    assert traj.epochs.k.tolist() == [1, 2, 3, 4]
    assert traj.epoch_starts().k.tolist() == [1, 2, 3]
    # a completed 0-epoch run keeps its only snapshot
    empty = adam_run(obj, [1.5], params(epochs=0))
    assert empty.epoch_starts().k.tolist() == [1]
    # a failed run has no closing snapshot to drop
    obj = custom_objective(n=1, d=1, value_fn=lambda j, w: -float(w[0]), grad_fn=lambda j, w: [-1.0])
    failed = adam_run(obj, [0.0], params(beta1=0.0, eta1=1e100, xi=0.0, schedule=SCHEDULE_CONSTANT))
    assert failed.status == STATUS_DIVERGED
    assert failed.epoch_starts().k.tolist() == [1]


def test_divergence_guard_trips_on_runaway_iterate():
    # constant unit gradient pointing downhill forever: with a colossal step
    # size the very first update pushes |w| past the guard
    obj = custom_objective(
        n=1,
        d=1,
        value_fn=lambda j, w: -float(w[0]),
        grad_fn=lambda j, w: [-1.0],
    )
    p = params(beta1=0.0, beta2=0.5, eta1=1e100, xi=0.0, epochs=3, schedule=SCHEDULE_CONSTANT)
    traj = adam_run(obj, [0.0], p)
    assert traj.status == STATUS_DIVERGED
    assert traj.fail_step == (1, 0)
    assert abs(traj.final_w[0]) > 1e100
    # the failing step is still recorded for diagnostics
    assert len(traj.steps) == 1
    # no closing boundary snapshot after a failed epoch
    assert traj.epochs.k.tolist() == [1]


def test_nonfinite_guard_wins_over_divergence():
    # an infinite gradient makes the update inf/inf = nan on the first step
    obj = custom_objective(
        n=1,
        d=1,
        value_fn=lambda j, w: 0.0,
        grad_fn=lambda j, w: [math.inf],
    )
    p = params(beta1=0.0, beta2=0.5, eta1=0.1, xi=0.0, epochs=2)
    traj = adam_run(obj, [0.0], p)
    assert traj.status == STATUS_NONFINITE
    assert traj.fail_step == (1, 0)
    assert math.isnan(traj.final_w[0])


def test_nan_gradient_ends_run_nonfinite():
    # the first step moves w to <= 0, where the gradient is NaN: the NaN
    # moments must end the run, not zero the update and freeze the iterate
    obj = custom_objective(
        n=2,
        d=1,
        value_fn=lambda j, w: float(w[0]),
        grad_fn=lambda j, w: [1.0] if w[0] > 0.0 else [math.nan],
    )
    p = params(beta1=0.9, beta2=0.999, eta1=1.0, schedule=SCHEDULE_CONSTANT, epochs=3)
    traj = adam_run(obj, [0.5], p)
    assert traj.status == STATUS_NONFINITE
    assert traj.fail_step == (1, 1)
    assert math.isnan(traj.final_w[0])
    assert traj.epochs.k.tolist() == [1]


def test_zero_gradient_and_zero_xi_defines_zero_update():
    # all-zero state with a zero gradient leaves the iterate unchanged
    obj = quadratic_sum([2.0], [[0.0]], known_D0_D1=(0.0, 1.0))
    p = params(beta1=0.0, beta2=0.9, xi=0.0, epochs=1)
    traj = adam_run(obj, [0.0], p)
    assert traj.status == STATUS_COMPLETED
    assert traj.final_w[0] == 0.0


def test_epoch_grad_norms_and_tail_mean():
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.0], params(epochs=20, record_steps=False))
    norms = traj.epochs.grad_norm
    assert len(norms) == 21
    tail = tail_mean_grad_norm(traj, frac=0.1)
    # closing snapshot dropped: mean over the last 2 of 20 epoch-start norms
    expected = np.mean(norms[:-1][-2:])
    assert tail == pytest.approx(float(expected), rel=1e-12)


def test_aux_sequence_identity_at_zero_beta1():
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.0], params(beta1=0.0, epochs=3))
    u = aux_sequence(traj, beta1=0.0)
    for row, w0 in zip(u, traj.epochs.w0):
        assert row[0] == pytest.approx(w0[0], rel=1e-15)


def test_aux_sequence_momentum_correction():
    obj = zhang_counterexample(1.0)
    b1 = 0.6
    traj = adam_run(obj, [1.0], params(beta1=b1, epochs=3))
    u = aux_sequence(traj, beta1=b1)
    for row, w0, w_prev in zip(u, traj.epochs.w0, traj.epochs.w_prev):
        expect = (w0[0] - b1 * w_prev[0]) / (1.0 - b1)
        assert row[0] == pytest.approx(expect, rel=1e-15)


def test_csv_export_step_rows(tmp_path):
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.0], params(epochs=2))
    out = tmp_path / "t.csv"
    export_trajectory_csv(traj, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["k", "i", "tau"]
    assert rows[0][3] == "w0"
    assert len(rows) - 1 == len(traj.steps)
    # floats round-trip exactly through repr
    assert float(rows[1][3]) == traj.steps.w_before[0, 0]


def test_csv_export_epoch_rows_when_steps_not_recorded(tmp_path):
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.0], params(epochs=5, record_steps=False))
    out = tmp_path / "t.csv"
    export_trajectory_csv(traj, str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == len(traj.epochs)
    # epoch boundary rows carry sentinel component indices
    assert all(r[1] == "-1" and r[2] == "-1" for r in rows[1:])


def test_summary_contents():
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.0], params(epochs=2))
    s = trajectory_summary(traj)
    assert s["status"] == STATUS_COMPLETED
    assert s["epoch_snapshots"] == 3
    assert s["recorded_steps"] == 20
    assert s["last_grad_norm"] == pytest.approx(traj.epochs.grad_norm[-1], rel=1e-15)
    assert s["fail_step"] is None


# ------------------------------------------------------------- plain descent


def test_gd_contracts_on_quadratic():
    obj = quadratic_sum([2.0], [[1.0]], known_D0_D1=(0.0, 1.0))
    traj = gd_run(obj, [5.0], eta1=0.1, steps=200, schedule=SCHEDULE_CONSTANT)
    assert traj.status == STATUS_COMPLETED
    assert abs(traj.final_w[0] - 1.0) < 1e-6


def test_clipped_gd_caps_step_length():
    obj = quadratic_sum([2.0], [[0.0]], known_D0_D1=(0.0, 1.0))
    thresh = 0.5
    traj = gd_run(obj, [100.0], eta1=1.0, steps=3, clip_threshold=thresh)
    moves = np.abs(np.diff(traj.epochs.w0[:, 0]))
    assert len(moves) == 3
    for mv in moves:
        assert mv <= 1.0 * thresh + 1e-12


@pytest.mark.parametrize(
    "w0, eta1, status, steps",
    [([1.0, 2.0], 0.1, STATUS_COMPLETED, 4), ([3.0, 2.0], 2.0, STATUS_DIVERGED, 3)],
)
def test_gd_step_values_are_the_epoch_values_of_their_start(w0, eta1, status, steps):
    # step k starts from snapshot k's w0: one f_value column, read by both
    obj = lowerbound_objective(1.0, 1.0, 0.5)
    traj = gd_run(obj, w0, eta1=eta1, steps=4)
    assert traj.status == status
    assert len(traj.steps) == steps
    e, s = traj.epochs, traj.steps
    assert np.array_equal(s.w_before, e.w0[:steps])
    assert s.f_value.tolist() == [obj.value(w) for w in s.w_before.tolist()]
    assert e.f_value.tolist() == [obj.value(w) for w in e.w0.tolist()]
    assert np.shares_memory(s.f_value, e.f_value)
    # the step table derives w_before from the epoch table, and each
    # snapshot's w_prev is the previous snapshot's w0
    assert np.shares_memory(s.w_before, e.w0)
    assert np.array_equal(e.w_prev[1:], e.w0[:-1])
    assert np.array_equal(e.w_prev[0], e.w0[0])


def test_adam_step_positions_are_divmod_of_the_row():
    # x's partial turns -inf past x = 1: the run ends inside epoch 6
    obj = custom_objective(
        n=3, d=1, value_fn=lambda j, w: (-1.0 - 0.5 * j) * w[0],
        grad_fn=lambda j, w: [-1.0 - 0.5 * j] if w[0] <= 1.0 else [-math.inf],
    )
    traj = adam_run(obj, [0.0], AdamParams(eta1=0.1, epochs=10, schedule=SCHEDULE_CONSTANT, seed=2))
    assert (traj.status, traj.fail_step) == (STATUS_NONFINITE, (6, 1))
    s = traj.steps
    assert len(s) == 5 * 3 + 2
    rows = np.arange(len(s))
    assert s.k.tolist() == (rows // 3 + 1).tolist()
    assert s.i.tolist() == (rows % 3).tolist()
    # each complete epoch visits every component once
    assert all(sorted(order) == [0, 1, 2] for order in s.tau[:15].reshape(5, 3).tolist())


@given(
    eta=st.floats(0.0, 1e300),
    r=st.floats(),
)
@example(eta=0.0, r=-0.0)
@example(eta=5e-324, r=-5e-324)
@example(eta=5e-324, r=math.inf)
@example(eta=0.0, r=-math.inf)
@example(eta=1e300, r=-1e300)
@example(eta=0.5, r=math.nan)
@settings(max_examples=300, deadline=None)
def test_eta_times_abs_ratio_is_abs_of_the_update(eta, r):
    # update_abs is derived as eta_k * |r| in NumPy; the loop once stored
    # |eta_k * r| from Python floats. Equal by bits for eta >= 0, NaN as NaN.
    with np.errstate(all="ignore"):
        got = (np.array([eta])[:, None] * np.array([[abs(r)]]))[0, 0]
    want = abs(eta * r)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.array([got]).view(np.int64)[0] == np.array([want]).view(np.int64)[0]


@pytest.mark.parametrize("w0", [[1.0, 2.0], [math.nan], [math.inf]])
def test_runs_validate_start_point_at_entry(w0):
    # the hot paths evaluate the objective unchecked, so a bad start point
    # must be refused before the first step, even for an empty run
    obj = quadratic_sum([2.0], [[1.0]], known_D0_D1=(0.0, 1.0))
    with pytest.raises(ValueError):
        gd_run(obj, w0, eta1=0.1, steps=0)
    with pytest.raises(ValueError):
        adam_run(obj, w0, params(epochs=0))
