import dataclasses
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adamlab.landscapes import (
    expquad_grad,
    lowerbound_objective,
    make_lowerbound,
    quadratic_sum,
    zhang_counterexample,
)
from adamlab.optimizers import (
    SCHEDULE_CONSTANT,
    AdamParams,
    EpochTable,
    StepTable,
    Trajectory,
    adam_run,
    gd_run,
)
from adamlab.probes import (
    LemmaReport,
    affine_envelope,
    affine_noise_fit,
    check_bounded_update,
    check_u_gap,
    l0l1_fit,
    local_smoothness,
    noise_pairs,
    smoothness_pairs,
)
from adamlab.theory import ProblemConstants, TheoryConstants, compute_constants, progress_metric


# ---------------------------------------------------------------- smoothness


def test_alpha_must_be_reciprocal_of_integer():
    obj = quadratic_sum([2.0], [[0.0]])
    with pytest.raises(ValueError):
        local_smoothness(obj, [0.0], [1.0], alpha=0.3)
    with pytest.raises(ValueError):
        local_smoothness(obj, [0.0], [1.0], alpha=0.0)
    with pytest.raises(ValueError):
        local_smoothness(obj, [0.0], [1.0], alpha=1.5)
    # 1/3 is fine even though it is not exactly representable
    for alpha in (1.0 / 3.0, 1.0):
        assert local_smoothness(obj, [0.0], [1.0], alpha=alpha).estimate == pytest.approx(2.0, rel=1e-12)


def test_degenerate_segment_flagged():
    obj = quadratic_sum([2.0], [[0.0]])
    est = local_smoothness(obj, [0.7], [0.7], alpha=0.5)
    assert est.degenerate
    assert math.isnan(est.estimate)


def test_constant_curvature_estimated_exactly():
    obj = quadratic_sum([2.0, 2.0], [[-1.0], [3.0]])
    for a, b in (([0.0], [1.0]), ([-5.0], [2.5]), ([10.0], [10.1])):
        est = local_smoothness(obj, a, b, alpha=0.1)
        assert est.estimate == pytest.approx(2.0, rel=1e-12)


def test_exponential_branch_estimate_within_five_percent():
    obj = lowerbound_objective(1.0, 1.0, 0.5)
    for x in (1.5, 2.0, 3.0, 4.0):
        est = local_smoothness(obj, [x, 0.0], [x + 0.01, 0.0], alpha=0.1)
        local = 1.0 * abs(expquad_grad(x, 1.0, 1.0))  # L1 |grad| on this branch
        assert abs(est.estimate - local) / local < 0.05


def test_smoothness_pairs_from_trajectory():
    obj = quadratic_sum([2.0], [[1.0]])
    traj = gd_run(obj, [5.0], eta1=0.1, steps=20, schedule=SCHEDULE_CONSTANT)
    pairs = smoothness_pairs(obj, traj, alpha=0.25)
    assert len(pairs) == len(traj.epochs) - 1
    for gn, est in pairs:
        assert est == pytest.approx(2.0, rel=1e-12)
    # stride thins the sequence
    assert len(smoothness_pairs(obj, traj, alpha=0.25, stride=5)) == 4
    with pytest.raises(ValueError, match=r"^stride: expected an integer in \[1, 9223372036854775808\), got 0$"):
        smoothness_pairs(obj, traj, stride=0)


# -------------------------------------------------------------- noise pairs


def test_noise_pairs_hand_values():
    obj = zhang_counterexample(1.0)
    c = 10.0 / 9.0
    for x in (-1.0, 0.0, 2.0):
        (u, v), = noise_pairs(obj, [[x]])
        assert u == pytest.approx((0.02 * x) ** 2, rel=1e-12, abs=1e-15)
        want_v = (4.0 * (x - 1.0) ** 2 + 9.0 * 0.04 * (x - c) ** 2) / 10.0
        assert v == pytest.approx(want_v, rel=1e-12)


# ---------------------------------------------------------- affine envelope


def brute_force_envelope(pts):
    """All support lines through <= 2 points, same feasibility rule."""
    med_u = statistics.median(u for u, _ in pts)
    max_v = max(v for _, v in pts)
    scale = max(1.0, max(abs(v) for _, v in pts), max(abs(u) for u, _ in pts))
    feas_tol = 1e-9 * scale

    cands = [(max(0.0, max_v), 0.0)]
    pos = [(u, v) for u, v in pts if u > 0.0]
    if pos:
        slope = max(v / u for u, v in pos)
        if slope >= 0.0:
            cands.append((0.0, slope))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            (ua, va), (ub, vb) = pts[i], pts[j]
            if ub == ua:
                continue
            d1 = (vb - va) / (ub - ua)
            d0 = va - d1 * ua
            if d1 >= 0.0 and d0 >= 0.0:
                cands.append((d0, d1))

    def violation(d0, d1):
        return max(v - (d0 + d1 * u) for u, v in pts)

    best = None
    for d0, d1 in cands:
        if violation(d0, d1) > feas_tol:
            continue
        objv = d0 + d1 * med_u
        if best is None or objv < best:
            best = objv
    if best is None:
        best = max(0.0, max_v)
    return best


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=300, deadline=None)
def test_envelope_matches_brute_force_oracle(pts):
    fit = affine_envelope(pts)
    want = brute_force_envelope([(float(u), float(v)) for u, v in pts])
    scale = max(1.0, max(abs(v) for _, v in pts), max(abs(u) for u, _ in pts))
    objective = fit.D0_hat + fit.D1_hat * statistics.median(float(u) for u, _ in pts)
    assert objective == pytest.approx(want, abs=1e-9 * scale)
    assert fit.D0_hat >= 0.0 and fit.D1_hat >= 0.0


def test_envelope_on_counterexample_grid():
    obj = zhang_counterexample(1.0)
    points = [[float(x)] for x in np.linspace(-3.0, 3.0, 101)]
    fit = affine_noise_fit(obj, points)
    assert fit.D1_hat > 0.0
    assert fit.max_violation <= 1e-9 * max(1.0, fit.D0_hat)
    # envelope must actually dominate every sampled pair
    for u, v in noise_pairs(obj, points):
        assert v <= fit.D0_hat + fit.D1_hat * u + 1e-6


def test_envelope_identical_components_is_identity():
    obj = quadratic_sum([2.0, 2.0], [[0.5], [0.5]])
    points = [[float(x)] for x in np.linspace(-2.0, 2.0, 41)]
    fit = affine_noise_fit(obj, points)
    assert fit.D0_hat <= 1e-12
    assert fit.D1_hat == pytest.approx(1.0, rel=1e-9)
    assert fit.max_violation <= 1e-12


def test_envelope_requires_points():
    with pytest.raises(ValueError):
        affine_envelope([])


# ------------------------------------------------------------ curvature fit


def test_l0l1_fit_flat_on_quadratic():
    pairs = [(g, 2.0) for g in (0.5, 1.0, 2.0, 4.0)]
    fit = l0l1_fit(pairs)
    assert fit.flat
    assert fit.L1_hat == 0.0
    assert fit.L0_hat == pytest.approx(2.0, rel=1e-12)


def test_l0l1_fit_recovers_exponential_branch():
    obj = lowerbound_objective(1.0, 1.0, 0.5)
    pairs = []
    for x in np.linspace(1.5, 4.0, 40):
        est = local_smoothness(obj, [float(x), 0.0], [float(x) + 0.01, 0.0], alpha=0.1)
        pairs.append((abs(expquad_grad(float(x), 1.0, 1.0)), est.estimate))
    fit = l0l1_fit(pairs)
    assert not fit.flat
    # est ~ L1 * gnorm on this branch: log-log slope 1, intercept ln L1 = 0
    assert abs(fit.slope - 1.0) < 0.05
    assert abs(fit.intercept - 0.0) < 0.05
    assert fit.r_squared > 0.999
    assert fit.L1_hat == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("algo", ["gd", "adam"])
def test_l0l1_fit_is_a_sound_envelope_on_trajectories(algo):
    # the (L0, L1) fit bounds every smoothness pair measured along an
    # AdamVsGd-style run from above and stays within the landscape's true
    # constants
    obj, w0, con = make_lowerbound(1.0, 1.0, 10_000, 100.0, 199.0)
    if algo == "gd":
        traj = gd_run(
            obj, w0, 0.5 * con.eta_star, steps=500, schedule="Diminishing", record_steps=False
        )
    else:
        params = AdamParams(beta1=0.9, beta2=0.999, eta1=0.5, epochs=500, seed=1, record_steps=False)
        traj = adam_run(obj, w0, params)
    pairs = smoothness_pairs(obj, traj)
    fit = l0l1_fit(pairs)
    assert fit.L0_hat >= 0.0 and fit.L1_hat >= 0.0
    above = [(g, est) for g, est in pairs if est > (fit.L0_hat + fit.L1_hat * g) * (1.0 + 1e-9)]
    assert not above
    L0, L1 = obj.known_L0_L1
    assert fit.L0_hat <= L0 and fit.L1_hat <= L1


def test_l0l1_fit_input_validation():
    with pytest.raises(ValueError):
        l0l1_fit([(1.0, 2.0)])
    with pytest.raises(ValueError):
        l0l1_fit([(1.0, math.nan), (2.0, 3.0)])


# ------------------------------------------------------------- lemma audits


def zhang_tc(beta1=0.9, beta2=0.999, eta1=0.01):
    pc = ProblemConstants(L0=2.0, L1=0.0, D0=1.2, D1=1823.0, n=10, d=1, f_gap=1.0)
    return compute_constants(beta1, beta2, eta1, pc)


def test_bounded_update_clean_on_counterexample():
    obj = zhang_counterexample(1.0)
    p = AdamParams(beta1=0.9, beta2=0.999, eta1=0.01, xi=1e-8, epochs=30, seed=3)
    traj = adam_run(obj, [1.0], p)
    rep = check_bounded_update(traj, zhang_tc())
    assert rep.checked == 2 * len(traj.steps)
    assert rep.violation_count == 0
    assert 0.0 < rep.max_ratio <= 1.0


def test_u_gap_clean_on_counterexample():
    obj = zhang_counterexample(1.0)
    p = AdamParams(beta1=0.9, beta2=0.999, eta1=0.01, xi=1e-8, epochs=30, seed=3)
    traj = adam_run(obj, [1.0], p)
    rep = check_u_gap(traj, zhang_tc())
    assert rep.violation_count == 0
    assert rep.checked > 0
    assert 0.0 <= rep.max_ratio <= 1.0


def test_lemma_audits_catch_fabricated_violations():
    obj = zhang_counterexample(1.0)
    p = AdamParams(beta1=0.9, beta2=0.999, eta1=0.01, xi=1e-8, epochs=2, seed=3)
    traj = adam_run(obj, [1.0], p)
    tiny = TheoryConstants(
        C1=1e-9, C2=1e-9, C3=0.0, C4=0.0, C5=0.0, C6=0.0, C7=0.0, C8=0.0,
        C9=0.0, C10=0.0, C11=0.0, C12=0.0, C13=0.0, g_value=1.0,
        smooth_L0=1.0, smooth_L1=0.0, beta1=0.9, beta2=0.999, n=10, d=1, eta1=0.01,
    )
    assert check_bounded_update(traj, tiny).violation_count > 0
    assert check_u_gap(traj, tiny).violation_count > 0


# The audits as plain loops over each row's Python floats, as they were
# written before the trajectory became columns: the oracle for the
# vectorized audits.


def reference_bounded_update(traj, tc):
    c1 = tc.C1
    violations = []
    count = 0
    max_ratio = 0.0
    eta = traj.epochs.eta.tolist()
    s = traj.steps
    for k, i, ratio, update_abs in zip(s.k.tolist(), s.i.tolist(), s.ratio.tolist(), s.update_abs.tolist()):
        cap = c1 * eta[k - 1]
        for l, (r, u) in enumerate(zip(ratio, update_abs)):
            count += 2
            rr = r / c1
            if rr > max_ratio:
                max_ratio = rr
            if r > c1:
                violations.append((k, i, l, r, c1))
            uu = 0.0 if cap == 0.0 else u / cap
            if uu > max_ratio:
                max_ratio = uu
            if u > cap:
                violations.append((k, i, l, u, cap))
    return LemmaReport(
        name="bounded_update",
        checked=count,
        violation_count=len(violations),
        max_ratio=max_ratio,
    )


def reference_u_gap(traj, tc):
    c2, beta1 = tc.C2, tc.beta1
    inv = 1.0 / (1.0 - beta1)
    e = traj.epochs
    snaps = list(zip(e.k.tolist(), e.eta.tolist(), e.w0.tolist()))
    us = [
        tuple((w0[l] - beta1 * wp[l]) * inv for l in range(len(w0)))
        for w0, wp in zip(e.w0.tolist(), e.w_prev.tolist())
    ]
    violations = []
    count = 0
    max_ratio = 0.0
    for (k, eta, w0), u in zip(snaps, us):
        cap = c2 * eta
        for l in range(len(u)):
            gap = abs(u[l] - w0[l])
            count += 1
            rr = 0.0 if cap == 0.0 else gap / cap
            if rr > max_ratio:
                max_ratio = rr
            if gap > cap:
                violations.append((k, -1, l, gap, cap))
    for ((k, eta, _), ua), ub in zip(zip(snaps, us), us[1:]):
        cap = c2 * eta
        for l in range(len(ua)):
            move = abs(ub[l] - ua[l])
            count += 1
            rr = 0.0 if cap == 0.0 else move / cap
            if rr > max_ratio:
                max_ratio = rr
            if move > cap:
                violations.append((k, -2, l, move, cap))
    return LemmaReport(
        name="u_gap",
        checked=count,
        violation_count=len(violations),
        max_ratio=max_ratio,
    )


# ordinary magnitudes mixed with the values the comparisons treat specially
audit_floats = st.one_of(
    st.floats(0.0, 3.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300]),
)


@st.composite
def audited_trajectories(draw):
    d = draw(st.integers(1, 3))
    T = draw(st.integers(1, 6))
    S = draw(st.integers(0, 20))

    def matrix(rows):
        return np.array(draw(st.lists(audit_floats, min_size=rows * d, max_size=rows * d))).reshape(rows, d)

    def ints(strategy, size):
        return np.array(draw(st.lists(strategy, min_size=size, max_size=size)), dtype=np.int64)

    epochs = EpochTable(
        k=np.arange(1, T + 1),
        # 0.0 gives a zero cap
        eta=np.array(draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, math.nan, math.inf])),
                                   min_size=T, max_size=T))),
        w0=matrix(T),
        w_prev=matrix(T),
        grad_norm=np.ones(T),
        f_value=np.zeros(T),
    )
    steps = StepTable(
        k=np.sort(ints(st.integers(1, T), S)),
        i=ints(st.integers(0, 9), S),
        tau=np.zeros(S, dtype=np.int64),
        w_before=np.zeros((S, d)),
        ratio=matrix(S),
        update_abs=matrix(S),
        f_value=np.zeros(S),
    )
    traj = Trajectory(
        algo="adam", params={}, objective_spec=None, steps=steps, epochs=epochs,
        status="Completed", fail_step=None, final_w=(0.0,) * d,
    )
    # C1 >= 1 by its formula, so it is never 0; C2 = 0 gives a zero cap
    tc = dataclasses.replace(
        zhang_tc(),
        C1=draw(st.one_of(st.floats(1e-3, 10.0), st.just(math.inf))),
        C2=draw(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, math.inf]))),
        beta1=draw(st.sampled_from([0.0, 0.5, 0.9])),
    )
    return traj, tc


@given(audited_trajectories())
@settings(max_examples=200, deadline=None)
def test_vectorized_audits_equal_scalar_reference(case):
    traj, tc = case
    with np.errstate(all="ignore"):
        got_b, got_u = check_bounded_update(traj, tc), check_u_gap(traj, tc)
    want_b, want_u = reference_bounded_update(traj, tc), reference_u_gap(traj, tc)
    # repr tells NaN, -0.0 and NumPy scalars apart from Python floats
    assert repr(got_b) == repr(want_b)
    assert repr(got_u) == repr(want_u)


def test_vectorized_audits_count_many_violations_as_the_reference():
    # a real run under tiny constants: many checks fail
    obj = zhang_counterexample(1.0)
    traj = adam_run(obj, [1.0], AdamParams(epochs=10, seed=3))
    tc = dataclasses.replace(zhang_tc(), C1=1e-9, C2=1e-9)
    for got, want in (
        (check_bounded_update(traj, tc), reference_bounded_update(traj, tc)),
        (check_u_gap(traj, tc), reference_u_gap(traj, tc)),
    ):
        assert got.violation_count > 10
        assert repr(got) == repr(want)


# ------------------------------------------------------------ progress metric


def test_progress_metric_conventions():
    assert progress_metric(2.0, 4.0, 4.0, 0.5) == pytest.approx(min(1.0, 4.0 / 2.5))
    # zero denominator in the quadratic branch falls back to the linear one
    assert progress_metric(2.0, 0.0, 1.0, 0.0) == 2.0
    with pytest.raises(ValueError, match=r"^D1: expected a number in \(0.0, inf\)"):
        progress_metric(1.0, 0.0, 0.0, 0.0)
    # a negative D0 used to raise an unnamed math domain error, and a
    # negative xi to give a negative metric
    for D0, xi, name in ((-1.0, 0.0, "D0"), (0.0, -1.0, "xi")):
        with pytest.raises(ValueError, match=rf"^{name}: expected a number in \[0.0, inf\)"):
            progress_metric(1.0, D0, 1.0, xi)
