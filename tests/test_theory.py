import math

import numpy as np
import pytest

from adamlab.landscapes import expquad_grad
from adamlab.optimizers import EpochTable, StepTable, Trajectory
from adamlab.theory import (
    VERDICT_MAIN,
    VERDICT_NEIGHBORHOOD,
    VERDICT_VIOLATED,
    ConstraintViolation,
    NoRootError,
    ProblemConstants,
    TheoryConstants,
    check_theorem1,
    compute_constants,
    eta1_feasible,
    g_of_beta2,
    gamma_threshold,
    theorem1_rhs,
    theorem2_construction,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# second, independently written transcription of the constant chain, used to
# cross-check compute_constants term by term


def g_alt(b2, n):
    t1 = b2 ** (-(n - 1) / 2.0) - 1.0
    t2 = 1.0 - (b2 ** (n - 1) + 8.0 * n * (1.0 - b2 ** (n - 1)) / b2 ** n) ** -0.5
    t3 = 1.0 - math.sqrt(b2)
    den = b2 ** n - 2.0 * n * (1.0 - b2)
    t4 = math.inf if den <= 0.0 else math.sqrt(b2 ** (n + 1) / den) - 1.0
    return max(t1, t2, t3, t4)


def constants_alt(b1, b2, n, d, eta, L0, L1, D0, D1):
    sD0, sD1, sn, sd = math.sqrt(D0), math.sqrt(D1), math.sqrt(n), math.sqrt(d)
    sb = math.sqrt(b2)
    bn = b2 ** n
    hull = 1.0 - math.sqrt(bn)
    mom = (1.0 + b1) / (1.0 - b1)
    ell0 = n * L0 + L1 * sn * sD0  # additive smoothness constant of the averaged sum

    c = {}
    c[1] = 1.0 + (1.0 - b1) ** 2 * b2 / ((1.0 - b2) * (b2 - b1 * b1))
    c[2] = c[1] * (n + (1.0 + SQRT2) * b1 / (1.0 - b1))
    c[3] = c[1] * (
        (L0 + L1 * sD0) * (n + 2.0 * SQRT2 * math.sqrt(1.0 - b2) * sb / (1.0 - sb) ** 2)
        + 8.0 * math.sqrt(2.0 * n) * L0 / (1.0 - bn)
    )
    c[4] = 4.0 * L1 * c[1] * sD1 * math.sqrt((1.0 + sb) / (1.0 - sb))
    c[5] = n * n * (1.0 + n ** 1.5 * sd * c[1] * eta * L1 * sD1) * c[4] * (1.0 + d * sD1 / hull)
    c[6] = eta * eta * (d * c[3] + n * sD1 * c[4] / hull)
    c[7] = (
        3.0 * n ** 3 * sd * c[1] * eta ** 3 * ell0 * c[4] * (1.0 + d / hull)
        + eta * eta * (d * c[3] + c[2] * c[4] * n * sD1 / hull)
    )
    gv = g_alt(b2, n)
    if math.isinf(gv):
        for i in range(8, 14):
            c[i] = math.inf
        return c, gv
    short = SQRT2 * n / math.sqrt(bn)  # sqrt(2 n^2 / b2^n)
    c[8] = (
        SQRT2 * n ** 2.5 * L1 * sD1 / math.sqrt(bn)
        + d * gv * (n - 1.0 + mom) * short * L1 * c[1] * sD1 * (1.0 + 1.0 / (1.0 - bn))
        * (n + n ** 2.5 * sd * c[1] * eta * L1 * sD1)
        + 2.0 * b1 * sd * c[1] / ((1.0 - b1) * eta)
    )
    c[9] = (
        SQRT2 * n * n * d * ell0 * c[1] * eta * eta / math.sqrt(bn)
        + gv * (n - 1.0 + mom) * short * (n + 2.0 * SQRT2 * b1 / (1.0 - b1))
        * c[1] * (L0 + L1 * sD0) * d * sd * eta * eta
    )
    c[10] = (
        3.0 * d * gv * (n - 1.0 + mom) * short * L1 * c[1] * sD1 * (1.0 + 1.0 / (1.0 - bn))
        * n * n * sd * c[1] * eta ** 3 * ell0
        + c[9]
    )
    c[11] = (0.5 + c[2]) * c[5] + c[8] + 1.5 * d * L1 * math.sqrt(n * D1) * c[2] * c[2]
    c[12] = (0.5 + c[2]) * c[6] + c[9] + 1.5 * d * ell0 * c[2] * c[2] * eta * eta
    c[13] = (0.5 + c[2]) * c[7] + c[10] + 1.5 * d * ell0 * c[2] * c[2] * eta * eta
    return c, gv


def main_rhs_alt(T, eta, f_gap, c11, c12, c13, D0, D1, xi):
    lead = 4.0 * (2.0 * SQRT2 + 1.0)
    mix = (math.sqrt(D0) + xi) / (4.0 * math.sqrt(D1))
    num = f_gap + (c12 + mix * c11 * eta * eta) * math.log(T) + (c13 + mix * c11)
    return lead * num / (eta * math.sqrt(T))


GRID = [
    # (b1,   b2,     n,  d, eta,   L0,  L1,  D0,   D1)
    (0.0, 0.99, 10, 1, 0.1, 1.0, 0.0, 0.0, 1.0),
    (0.0, 0.999, 10, 1, 0.1, 1.0, 0.0, 0.0, 1.0),
    (0.9, 0.999, 10, 1, 0.01, 2.0, 1.0, 4.0, 2.0),
    (0.5, 0.99, 2, 3, 0.05, 0.5, 0.25, 1.0, 0.5),
    (0.1, 0.95, 5, 2, 0.2, 3.0, 2.0, 0.5, 4.0),
    (0.9, 0.9999, 50, 4, 0.001, 1.0, 1.0, 1.0, 1.0),
    (0.0, 0.5, 1, 1, 1.0, 1.0, 1.0, 1.0, 1.0),
    (0.7, 0.995, 20, 2, 0.02, 0.1, 0.3, 2.0, 1.5),
]


def test_constant_chain_agrees_with_independent_transcription():
    for b1, b2, n, d, eta, L0, L1, D0, D1 in GRID:
        pc = ProblemConstants(L0=L0, L1=L1, D0=D0, D1=D1, n=n, d=d, f_gap=1.0)
        tc = compute_constants(b1, b2, n, d, eta, pc)
        alt, gv = constants_alt(b1, b2, n, d, eta, L0, L1, D0, D1)
        assert tc.g_value == pytest.approx(gv, rel=1e-12)
        for i in range(1, 14):
            got = getattr(tc, f"C{i}")
            want = alt[i]
            assert got == pytest.approx(want, rel=1e-12), f"C{i} at {(b1, b2, n, d)}"
        assert tc.smooth_L0 == pytest.approx(n * L0 + L1 * math.sqrt(n) * math.sqrt(D0), rel=1e-12)
        assert tc.smooth_L1 == pytest.approx(L1 * math.sqrt(n) * math.sqrt(D1), rel=1e-12)


def test_bound_rhs_agrees_with_independent_transcription():
    for b1, b2, n, d, eta, L0, L1, D0, D1 in GRID:
        pc = ProblemConstants(L0=L0, L1=L1, D0=D0, D1=D1, n=n, d=d, f_gap=2.5)
        tc = compute_constants(b1, b2, n, d, eta, pc)
        if math.isinf(tc.C13):
            continue
        for T in (10, 1000):
            for xi in (0.0, 1e-8, 0.5):
                main, _ = theorem1_rhs(T, tc, pc, xi)
                want = main_rhs_alt(T, eta, pc.f_gap, tc.C11, tc.C12, tc.C13, D0, D1, xi)
                assert main == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# memory factor


def test_g_infinite_when_memory_too_short():
    # (1 - b2) * 2n / b2^n = 0.1 * 20 / 0.9^10 = 5.74 > 1
    assert math.isinf(g_of_beta2(0.9, 10))
    assert math.isfinite(g_of_beta2(0.99, 10))


def test_g_decreases_toward_one():
    vals = [g_of_beta2(b, 10) for b in (0.99, 0.999, 0.9999, 0.99999)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert g_of_beta2(1.0 - 1e-9, 10) < 1e-6


def test_g_bounded_below_by_sqrt_term():
    for b2 in (0.95, 0.99, 0.999):
        assert g_of_beta2(b2, 5) >= 1.0 - math.sqrt(b2)


def test_g_rejects_bad_arguments():
    with pytest.raises(ValueError):
        g_of_beta2(0.0, 5)
    with pytest.raises(ValueError):
        g_of_beta2(1.0, 5)
    with pytest.raises(ValueError):
        g_of_beta2(0.9, 0)


# ---------------------------------------------------------------------------
# first-constant anchors and domain checks


def test_c1_anchor_values():
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=10, d=1, f_gap=1.0)
    tc99 = compute_constants(0.0, 0.99, 10, 1, 0.1, pc)
    tc999 = compute_constants(0.0, 0.999, 10, 1, 0.1, pc)
    assert tc99.C1 == pytest.approx(101.0, rel=1e-12)
    assert tc999.C1 == pytest.approx(1001.0, rel=1e-12)
    # at zero momentum the hop constant collapses to n C1
    assert tc99.C2 == pytest.approx(10 * tc99.C1, rel=1e-12)


def test_compute_constants_domain_errors():
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=4, d=1, f_gap=1.0)
    with pytest.raises(ValueError):
        compute_constants(0.8, 0.5, 4, 1, 0.1, pc)  # beta1^2 >= beta2
    with pytest.raises(ValueError):
        compute_constants(0.0, 0.99, 5, 1, 0.1, pc)  # n mismatch with pc
    with pytest.raises(ValueError):
        compute_constants(0.0, 0.99, 4, 1, 0.0, pc)
    bad = ProblemConstants(L0=-1.0, L1=0.0, D0=0.0, D1=1.0, n=4, d=1, f_gap=1.0)
    with pytest.raises(ValueError):
        compute_constants(0.0, 0.99, 4, 1, 0.1, bad)


def test_short_memory_region_yields_infinite_tail_constants():
    pc = ProblemConstants(L0=1.0, L1=1.0, D0=1.0, D1=1.0, n=10, d=1, f_gap=1.0)
    tc = compute_constants(0.0, 0.9, 10, 1, 0.1, pc)
    assert math.isinf(tc.g_value)
    for i in range(8, 14):
        assert math.isinf(getattr(tc, f"C{i}"))
    for i in range(1, 8):
        assert math.isfinite(getattr(tc, f"C{i}"))


# ---------------------------------------------------------------------------
# beta2 admissibility threshold


def test_gamma_threshold_frozen_values():
    assert gamma_threshold(1.0, 1, 2, 0.9) == pytest.approx(0.9933196382630639, rel=1e-12)
    assert gamma_threshold(1.0, 2, 1, 0.5) == pytest.approx(0.9984414518205298, rel=1e-12)


def test_gamma_threshold_residual_is_tiny():
    for D1, n, d, b1 in ((1.0, 1, 2, 0.9), (1.0, 2, 1, 0.5), (2.0, 5, 2, 0.0)):
        x = gamma_threshold(D1, n, d, b1)
        lhs = math.sqrt(d) * g_of_beta2(x, n) * n / x ** (n / 2.0)
        rhs = 1.0 / (2.0 * (4.0 + SQRT2) * math.sqrt(D1) * (n - 1.0 + (1.0 + b1) / (1.0 - b1)))
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_gamma_threshold_monotone_in_momentum():
    # more momentum means a stricter memory requirement
    g_lo = gamma_threshold(1.0, 2, 1, 0.0)
    g_hi = gamma_threshold(1.0, 2, 1, 0.9)
    assert g_hi > g_lo


def test_gamma_threshold_no_root_errors():
    with pytest.raises(NoRootError):
        gamma_threshold(1e-30, 2, 1, 0.0)  # every beta2 with finite g passes
    with pytest.raises(NoRootError):
        gamma_threshold(1e30, 2, 1, 0.0)  # no beta2 < 1 passes
    with pytest.raises(ValueError):
        gamma_threshold(0.0, 2, 1, 0.0)


# ---------------------------------------------------------------------------
# step-size feasibility


def quad_pc(D0, D1, n=2, d=1):
    return ProblemConstants(L0=2.0, L1=0.0, D0=D0, D1=D1, n=n, d=d, f_gap=10.0)


def test_eta1_feasible_zero_momentum_quadratic_is_unconstrained():
    pc = quad_pc(16.0, 1.0)
    tc = compute_constants(0.0, 0.999, 2, 1, 0.05, pc)
    rep = eta1_feasible(tc, pc)
    assert rep.ok
    assert math.isinf(rep.max_eta_smooth)
    assert math.isinf(rep.max_eta_second)


def test_eta1_feasible_tiny_momentum_quadratic_has_finite_margin():
    pc = quad_pc(0.0, 1.25)
    tc = compute_constants(1e-5, 0.999, 2, 1, 0.01, pc)
    rep = eta1_feasible(tc, pc)
    assert rep.ok
    assert math.isinf(rep.max_eta_smooth)  # L1 = 0 leaves the smooth cap open
    assert math.isfinite(rep.max_eta_second)
    assert rep.margin_second > 0.0


def test_eta1_feasible_large_momentum_quadratic_is_impossible():
    # the second cap contains a term ~ beta1 C1 / eta1, so scaling eta1 down
    # cannot satisfy it once beta1 C1 is large
    pc = quad_pc(0.0, 1.0)
    for eta in (0.1, 1e-3, 1e-6):
        tc = compute_constants(0.5, 0.999, 2, 1, eta, pc)
        rep = eta1_feasible(tc, pc)
        assert not rep.ok
        assert rep.margin_second < 0.0


# ---------------------------------------------------------------------------
# bound evaluation against recorded trajectories


def fake_traj(grad_norms, status="Completed"):
    T = len(grad_norms)
    epochs = EpochTable(
        k=np.arange(1, T + 1), eta=np.full(T, 0.1), w0=np.zeros((T, 1)), w_prev=np.zeros((T, 1)),
        grad_norm=np.array(grad_norms, dtype=float), f_value=np.zeros(T),
    )
    empty = np.empty((0, 1))
    no_steps = StepTable(
        k=np.empty(0, dtype=np.int64), i=np.empty(0, dtype=np.int64), tau=np.empty(0, dtype=np.int64),
        w_before=empty, ratio=empty, update_abs=empty, f_value=np.empty(0),
    )
    return Trajectory(
        algo="adam", params={}, objective_spec=None, steps=no_steps,
        epochs=epochs, status=status, fail_step=None, final_w=(0.0,),
    )


def hand_tc(**kw):
    base = dict(
        C1=1.0, C2=1.0, C3=0.0, C4=0.0, C5=0.0, C6=0.0, C7=0.0, C8=0.0,
        C9=0.0, C10=0.0, C11=0.0, C12=0.0, C13=0.0, g_value=1.0,
        smooth_L0=1.0, smooth_L1=0.0, beta1=0.0, beta2=0.5, n=2, d=1, eta1=1.0,
    )
    base.update(kw)
    return TheoryConstants(**base)


def test_check_theorem1_excludes_closing_snapshot():
    # three recorded boundaries of a completed run mean T = 2 in the bound
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=2, d=1, f_gap=1.0)
    rep = check_theorem1(fake_traj([1.0, 1.0, 123.0]), pc, hand_tc(), xi=0.0)
    assert rep.T == 2
    assert rep.min_grad_norm == 1.0


def test_check_theorem1_main_branch_verdict():
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=2, d=1, f_gap=1e6)
    rep = check_theorem1(fake_traj([3.0, 2.0, 5.0]), pc, hand_tc(), xi=0.0)
    # rhs ~ 4 (2 sqrt2 + 1) 1e6 / sqrt(2), lhs = 2
    assert rep.verdict == VERDICT_MAIN
    assert rep.trajectory_lhs == pytest.approx(2.0)


def test_check_theorem1_neighborhood_verdict():
    # main branch fails (tiny f_gap, moderate gradient floor) but the
    # gradient sits inside the additive-noise neighborhood
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=100.0, D1=1.0, n=2, d=1, f_gap=1e-9)
    rep = check_theorem1(fake_traj([1.0, 1.0, 1.0]), pc, hand_tc(), xi=0.0)
    assert rep.detail["main_ok"] is False
    assert rep.verdict == VERDICT_NEIGHBORHOOD


def test_check_theorem1_violated_when_both_branches_fail():
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=2, d=1, f_gap=1e-9)
    rep = check_theorem1(fake_traj([1.0, 1.0, 1.0]), pc, hand_tc(), xi=0.0)
    assert rep.verdict == VERDICT_VIOLATED


def test_theorem1_rhs_neighborhood_vanishes_without_additive_noise():
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=2, d=1, f_gap=1.0)
    _, neigh = theorem1_rhs(100, hand_tc(), pc, xi=0.0)
    assert neigh == 0.0


def test_theorem1_rhs_grows_with_xi():
    pc = ProblemConstants(L0=1.0, L1=0.0, D0=1.0, D1=1.0, n=2, d=1, f_gap=1.0)
    tc = hand_tc(C11=1.0, C12=1.0, C13=1.0)
    lo, _ = theorem1_rhs(100, tc, pc, xi=0.0)
    hi, _ = theorem1_rhs(100, tc, pc, xi=1.0)
    assert hi > lo


# ---------------------------------------------------------------------------
# divergence / slow-progress construction


def test_construction_frozen_values():
    con = theorem2_construction(L0=1.0, L1=1.0, T=10_000, M=100.0, f_bar=199.0)
    assert con.x0 == pytest.approx(math.log(50.25) + 1.0, rel=1e-15)
    assert con.x0 == pytest.approx(4.917010546939185, rel=1e-14)
    assert con.epsilon == pytest.approx(1.0261507458922856, rel=1e-12)
    assert con.eta_star == pytest.approx(0.2362331054478036, rel=1e-12)
    assert con.y0 == pytest.approx(48.98215547194294, rel=1e-12)
    assert con.axis_gap == pytest.approx(49.75, rel=1e-15)
    assert con.slow_horizon == 9390
    assert con.detail["value_gap"] == pytest.approx(99.5, rel=1e-15)
    assert con.detail["m_floor"] == pytest.approx(3.4218069514168894, rel=1e-12)


def test_construction_start_threshold_identity():
    # eta_star equals (1 + sqrt2) x0 / |slope at x0| on the exponential branch
    con = theorem2_construction(L0=1.0, L1=1.0, T=10_000, M=100.0, f_bar=199.0)
    slope = expquad_grad(con.x0, 1.0, 1.0)
    assert con.eta_star == pytest.approx((1.0 + SQRT2) * con.x0 / slope, rel=1e-12)


def test_construction_epsilon_scales_with_sqrt_excess():
    c1 = theorem2_construction(1.0, 1.0, 10_000, 100.0, 50.0)
    c4 = theorem2_construction(1.0, 1.0, 10_000, 100.0, 200.0)
    assert c4.epsilon == pytest.approx(2.0 * c1.epsilon, rel=1e-12)


def test_construction_rejects_small_gradient_budget():
    with pytest.raises(ConstraintViolation) as exc:
        theorem2_construction(L0=1.0, L1=1.0, T=10_000, M=1.0, f_bar=199.0)
    assert not exc.value.detail["m_above_floor"]


def test_construction_argument_validation():
    with pytest.raises(ValueError):
        theorem2_construction(0.0, 1.0, 100, 10.0, 5.0)
    with pytest.raises(ValueError):
        theorem2_construction(1.0, 1.0, 0, 10.0, 5.0)
    with pytest.raises(ValueError):
        theorem2_construction(1.0, 1.0, 100, 10.0, -1.0)


def test_problem_constants_validation():
    with pytest.raises(ValueError):
        ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=0, d=1, f_gap=1.0).validate()
    with pytest.raises(ValueError, match=r"^D0: expected a number in \[0.0, inf\), got -1.0"):
        ProblemConstants(L0=1.0, L1=0.0, D0=-1.0, D1=1.0, n=1, d=1, f_gap=1.0).validate()
    with pytest.raises(ValueError, match=r"^f_gap: expected a finite number, got inf"):
        ProblemConstants(L0=1.0, L1=0.0, D0=0.0, D1=1.0, n=1, d=1, f_gap=math.inf).validate()
    ProblemConstants(L0=0.0, L1=0.0, D0=0.0, D1=0.0, n=1, d=1, f_gap=0.0).validate()
