import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adamlab import optimizers
from adamlab.landscapes import (
    KIND_CUSTOM,
    FiniteSumObjective,
    lowerbound_objective,
    quadratic_sum,
    _sum,
    zhang_counterexample,
)
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
    # the float64 column for k = 1..count equals eta1 and eta1 / sqrt(k) on
    # Python numbers by repr, an int eta1 (past int64 too) included
    count = 20_000
    for eta1 in (0.1, 3, 2.0 ** 0.5, 7e-300, 1.5e300, 10 ** 29):
        constant = eta_schedule(eta1, SCHEDULE_CONSTANT, count)
        diminishing = eta_schedule(eta1, SCHEDULE_DIMINISHING, count)
        assert constant.dtype == diminishing.dtype == np.float64
        assert repr(constant.tolist()) == repr([float(eta1)] * count)
        assert repr(diminishing.tolist()) == repr([eta1 / math.sqrt(k) for k in range(1, count + 1)])
    assert eta_schedule(0.1, SCHEDULE_DIMINISHING, 4)[-1] == 0.05
    for schedule in (SCHEDULE_DIMINISHING, SCHEDULE_CONSTANT):
        assert eta_schedule(0.1, schedule, 0).shape == (0,)


def test_each_run_computes_its_step_sizes_once(monkeypatch):
    # one column of k = 1..K+1 per run, read by the loop and kept by the
    # epoch table
    calls = []
    real = optimizers.eta_schedule

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimizers, "eta_schedule", counted)
    traj = adam_run(zhang_counterexample(), [-2.0], params(epochs=7))
    assert calls == [(0.01, SCHEDULE_DIMINISHING, 8)]
    assert repr(traj.epochs.eta.tolist()) == repr([0.01 / math.sqrt(k) for k in range(1, 9)])
    calls.clear()
    traj = gd_run(zhang_counterexample(), [-2.0], 0.1, 7)
    assert calls == [(0.1, SCHEDULE_CONSTANT, 8)]
    assert traj.epochs.eta.tolist() == [0.1] * 8


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
    obj = quadratic_sum([2.0], [[3.0]])
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
    adam_epoch(state, obj, p, state.stream.permutation(obj.n), 0.05)
    assert abs(state.m[0]) > 0.0
    assert state.nu[0] > 0.0
    m, nu, w_start = state.m[0], state.nu[0], state.w[0]
    steps = {"tau": [], "w_before": [], "ratio": []}
    adam_epoch(state, obj, p, state.stream.permutation(obj.n), 0.05 / math.sqrt(2), steps)
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
    assert traj.epoch_start_norms().tolist() == traj.epochs.grad_norm[:3].tolist()
    # a completed 0-epoch run keeps its only snapshot
    empty = adam_run(obj, [1.5], params(epochs=0))
    assert empty.epoch_start_norms().tolist() == empty.epochs.grad_norm.tolist()
    assert len(empty.epochs) == 1
    # a failed run has no closing snapshot to drop
    obj = FiniteSumObjective(KIND_CUSTOM, 1, 1, {}, lambda j, w: -float(w[0]), lambda j, w: [-1.0])
    failed = adam_run(obj, [0.0], params(beta1=0.0, eta1=1e100, xi=0.0, schedule=SCHEDULE_CONSTANT))
    assert failed.status == STATUS_DIVERGED
    assert len(failed.epochs) == 1
    assert failed.epoch_start_norms().tolist() == failed.epochs.grad_norm.tolist()


def test_divergence_guard_trips_on_runaway_iterate():
    # constant unit gradient pointing downhill forever: with a colossal step
    # size the very first update pushes |w| past the guard
    obj = FiniteSumObjective(
        KIND_CUSTOM, 1, 1, {},
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
    obj = FiniteSumObjective(
        KIND_CUSTOM, 1, 1, {},
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
    obj = FiniteSumObjective(
        KIND_CUSTOM, 2, 1, {},
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
    obj = quadratic_sum([2.0], [[0.0]])
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
    # frac is a share in (0, 1]: 1.0 takes every epoch start
    assert tail_mean_grad_norm(traj, frac=1.0) == pytest.approx(float(np.mean(norms[:-1])), rel=1e-12)
    for frac in (0.0, -0.5, math.nextafter(1.0, 2.0), 1e308):
        with pytest.raises(ValueError, match=r"^frac: expected a number in \(0.0, 1.0\], got "):
            tail_mean_grad_norm(traj, frac=frac)


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


def reference_norm_keys(traj):
    """The summary's gradient-norm keys as they were computed, from the
    whole column and the epoch starts boxed as Python floats."""
    norms = traj.epochs.grad_norm.tolist()
    starts = traj.epoch_start_norms().tolist()
    tail = starts[-max(1, int(len(starts) * 0.1)):]
    return {
        "first_grad_norm": norms[0] if norms else None,
        "last_grad_norm": norms[-1] if norms else None,
        "min_grad_norm": min(norms) if norms else None,
        "tail_mean_grad_norm": _sum(tail) / len(tail) if starts else math.nan,
    }


NORMS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NORMS, max_size=40), st.sampled_from([STATUS_COMPLETED, STATUS_DIVERGED, STATUS_NONFINITE]))
@example([math.nan, 1.0, 0.5], STATUS_COMPLETED)  # a leading NaN wins the min
@example([2.0, math.nan, 0.5, math.nan], STATUS_COMPLETED)  # a later NaN is skipped
@example([math.inf, math.nan, -math.inf], STATUS_DIVERGED)
@example([math.inf, math.nan, math.inf], STATUS_COMPLETED)  # a NaN between equal infinities
@example([0.0, -0.0, 1.0], STATUS_COMPLETED)  # the first of two equal zeros
@example([3.0], STATUS_COMPLETED)  # one row: the only snapshot is kept
@example([3.0], STATUS_DIVERGED)
@example([], STATUS_DIVERGED)
def test_summary_boxes_only_the_norms_it_reports(norms, status):
    base = gd_run(quadratic_sum([2.0], [[1.0]]), [5.0], eta1=0.1, steps=3)
    column = np.array(norms, dtype=np.float64)
    epochs = replace(base.epochs, k=np.arange(1, len(norms) + 1), grad_norm=column)
    traj = replace(base, epochs=epochs, status=status)
    summary = trajectory_summary(traj)
    got = {key: summary[key] for key in reference_norm_keys(traj)}
    assert repr(got) == repr(reference_norm_keys(traj))
    assert repr(tail_mean_grad_norm(traj)) == repr(got["tail_mean_grad_norm"])


# ------------------------------------------------------------- plain descent


def test_gd_contracts_on_quadratic():
    obj = quadratic_sum([2.0], [[1.0]])
    traj = gd_run(obj, [5.0], eta1=0.1, steps=200, schedule=SCHEDULE_CONSTANT)
    assert traj.status == STATUS_COMPLETED
    assert abs(traj.final_w[0] - 1.0) < 1e-6


def test_clipped_gd_caps_step_length():
    obj = quadratic_sum([2.0], [[0.0]])
    thresh = 0.5
    traj = gd_run(obj, [100.0], eta1=1.0, steps=3, clip_threshold=thresh)
    moves = np.abs(np.diff(traj.epochs.w0[:, 0]))
    assert len(moves) == 3
    for mv in moves:
        assert mv <= 1.0 * thresh + 1e-12


def constant_gradient(grad):
    """n = 1 Custom objective whose gradient is ``grad`` everywhere."""
    return FiniteSumObjective(
        KIND_CUSTOM, 1, len(grad), {},
        value_fn=lambda j, w: math.fsum(g * v for g, v in zip(grad, w)), grad_fn=lambda j, w: list(grad),
    )


@pytest.mark.parametrize(
    "obj, w0, eta1, step",
    [
        # both partials about 1.7e308, finite, their norm inf: 1/sqrt(2) each
        (quadratic_sum([1.7e300] * 2, [[0.0, 0.0]] * 2), [1e8, 1e8], 1e-300, [0.7071067811865475] * 2),
        (constant_gradient([1.7e308, 1.7e308]), [0.0, 0.0], 2.0, [0.7071067811865475] * 2),
        (constant_gradient([-1.5e308, 1.0e308, 0.0]), [0.0] * 3, 2.0, [-0.8320502943378437, 0.5547001962252291, 0.0]),
    ],
)
def test_clipped_gd_keeps_the_direction_of_a_finite_gradient_whose_norm_overflows(obj, w0, eta1, step):
    # the norm overflows with no infinite coordinate: the step is g divided
    # by its largest |g_l|, clipped to the threshold
    traj = gd_run(obj, w0, eta1=eta1, steps=3, clip_threshold=1.0)
    assert traj.status == STATUS_COMPLETED
    assert traj.epochs.grad_norm.tolist() == [math.inf] * 4
    assert math.hypot(*step) == pytest.approx(1.0, rel=1e-15)
    assert traj.steps.ratio.tolist() == [[abs(v) for v in step]] * 3
    # three steps of eta1 * step against the gradient
    assert traj.final_w == pytest.approx([w - 3.0 * eta1 * v for w, v in zip(w0, step)], rel=1e-15)


@pytest.mark.parametrize("grad", [[math.inf, math.nan], [math.nan, -math.inf], [1e300, math.nan]])
def test_clipped_gd_stops_on_a_nan_partial_as_plain_gd_does(grad):
    # beside an infinite partial, a NaN one used to get a 0.0 clipped step,
    # and the run completed at (-0.30000000000000004, 0.0)
    obj = constant_gradient(grad)
    clipped = gd_run(obj, [0.0, 0.0], eta1=0.1, steps=3, clip_threshold=1.0)
    plain = gd_run(obj, [0.0, 0.0], eta1=0.1, steps=3)
    assert (clipped.status, clipped.fail_step) == (plain.status, plain.fail_step) == (STATUS_NONFINITE, (1, 0))
    assert repr(clipped.final_w) == repr(plain.final_w)


@given(st.lists(st.floats(), max_size=8))
@example([-0.0, 0.0, -math.inf, math.inf, -math.nan, math.nan, -5e-324, -1e308])
@settings(max_examples=200, deadline=None)
def test_numpy_abs_of_the_signed_ratios_is_python_abs_bit_for_bit(vals):
    # the loops record signed ratios and _trajectory takes np.abs once; it
    # clears the sign bit as Python's abs does, so the bits are the same
    got = np.abs(np.array(vals, dtype=np.float64))
    want = np.array([abs(v) for v in vals], dtype=np.float64)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


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
    obj = FiniteSumObjective(
        KIND_CUSTOM, 3, 1, {},
        value_fn=lambda j, w: (-1.0 - 0.5 * j) * w[0],
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
    obj = quadratic_sum([2.0], [[1.0]])
    with pytest.raises(ValueError):
        gd_run(obj, w0, eta1=0.1, steps=0)
    with pytest.raises(ValueError):
        adam_run(obj, w0, params(epochs=0))
