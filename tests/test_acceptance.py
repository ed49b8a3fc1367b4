"""End-to-end acceptance checks for the reshuffled-Adam laboratory.

Each test pins one externally meaningful property of the package: the
non-convergence floor and its beta2 ordering, the divergence rate and the
slow-progress floor of the adversarial landscape, the per-step update bounds,
the gradient-norm guarantee on feasible quadratics, estimator fidelity, scale
invariance, envelope soundness, bit-level determinism, and a double-entry
transcription of the theory-constant chain.
"""

import dataclasses
import hashlib
import json
import math
import os

import pytest

from adamlab.harness import (
    ExperimentConfig,
    default_config_for,
    emit,
    merge_config,
    run_experiment,
)
from adamlab.landscapes import (
    expquad_grad,
    make_lowerbound,
    quadratic_sum,
    to_spec,
    zhang_counterexample,
)
from adamlab.optimizers import (
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    AdamParams,
    adam_run,
    tail_mean_grad_norm,
)
from adamlab.probes import (
    affine_noise_fit,
    check_bounded_update,
    check_u_gap,
    l0l1_fit,
    local_smoothness,
)
from adamlab.rng import SplitMix64
from adamlab.theory import (
    VERDICT_MAIN,
    VERDICT_VIOLATED,
    ProblemConstants,
    check_theorem1,
    compute_constants,
    eta1_feasible,
    g_of_beta2,
    gamma_threshold,
)

SQRT2 = math.sqrt(2.0)
HALF_LOG2 = 0.5 * math.log(2.0)


# 1 ------------------------------------------------------------------------


def test_beta2_controls_the_stationarity_floor():
    result = run_experiment(default_config_for("Fig3"))
    tails = {}
    for rid, traj in result.trajectories.items():
        assert traj.status == STATUS_COMPLETED
        tails[rid] = tail_mean_grad_norm(traj, frac=0.1)
    for seed in (1, 2, 3):
        series = [tails[f"b2={b2!r}-seed={seed}"] for b2 in (0.9, 0.99, 0.999)]
        # short-memory Adam stalls at a nonzero gradient floor
        assert series[0] > 1e-4
        # raising beta2 strictly lowers the floor, per seed
        assert series[0] > series[1] > series[2]
    assert result.ok


# 2 ------------------------------------------------------------------------


def test_gd_above_threshold_doubles_every_two_steps():
    result = run_experiment(default_config_for("Thm2Divergence"))
    total_checks = 0
    for rid, traj in result.trajectories.items():
        assert traj.status == STATUS_DIVERGED
        xs = [abs(x) for x in traj.epochs.w0[:, 0].tolist()]
        xs.append(abs(traj.final_w[0]))  # iterate that tripped the guard
        logs = [math.log(x) for x in xs if x > 0.0]
        ratios = [b - a for a, b in zip(logs, logs[1:])]
        assert len(ratios) >= 3, rid
        for r in ratios:
            assert r >= HALF_LOG2 - 1e-9, rid
        total_checks += len(ratios)
    assert total_checks >= 10
    assert result.ok


# 3 ------------------------------------------------------------------------


def test_gd_below_threshold_keeps_gradient_above_epsilon():
    result = run_experiment(default_config_for("Thm2Slow"))
    con = result.report["construction"]
    assert con["slow_horizon"] >= 100
    for rid, traj in result.trajectories.items():
        before = traj.epochs.grad_norm[traj.epochs.k < con["slow_horizon"]].tolist()
        assert before, rid
        assert min(before) >= con["epsilon"], rid
    assert result.ok


# 4 ------------------------------------------------------------------------


def test_update_and_virtual_iterate_bounds_hold_on_grid():
    obj = zhang_counterexample()
    x0 = [-2.0]
    pts = [[-3.0 + 6.0 * i / 100.0] for i in range(101)]
    fit = affine_noise_fit(obj, pts)
    L0, L1 = obj.known_L0_L1
    pc = ProblemConstants(
        L0=L0,
        L1=L1,
        D0=fit.D0_hat,
        D1=fit.D1_hat,
        n=obj.n,
        d=obj.d,
        f_gap=obj.value(x0) - obj.known_min,
    )
    violations = 0
    checked = 0
    for beta1 in (0.0, 0.5, 0.9):
        for beta2 in (0.99, 0.999):
            if beta1 * beta1 >= beta2:
                continue
            tc = compute_constants(beta1, beta2, 0.1, pc)
            for seed in (1, 2, 3, 4, 5):
                params = AdamParams(
                    beta1=beta1,
                    beta2=beta2,
                    eta1=0.1,
                    xi=1e-8,
                    schedule="Diminishing",
                    epochs=1000,
                    init_mode="PaperTheory",
                    seed=seed,
                    record_steps=True,
                )
                traj = adam_run(obj, x0, params)
                assert traj.status == STATUS_COMPLETED
                rep_b = check_bounded_update(traj, tc)
                rep_u = check_u_gap(traj, tc)
                violations += rep_b.violation_count + rep_u.violation_count
                checked += rep_b.checked + rep_u.checked
    assert checked > 0
    assert violations == 0


# 5 ------------------------------------------------------------------------


def test_gradient_bound_verdict_on_feasible_quadratics():
    # two-component quadratics: one with an offset noise envelope, one with a
    # purely multiplicative envelope (D0 = 0, which zeroes the fallback branch)
    obj_a = dataclasses.replace(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]]), known_D0_D1=(16.0, 1.0))
    obj_b = dataclasses.replace(quadratic_sum([1.0, 3.0], [[0.0], [0.0]]), known_D0_D1=(0.0, 1.25))
    beta2 = 0.999
    xi = 1e-8
    cases = [
        (obj_a, [-2.0], 0.0, 0.05, None),
        (obj_b, [2.0], 1e-5, 0.01, VERDICT_MAIN),
    ]
    for obj, x0, beta1, eta1, forced in cases:
        D0, D1 = obj.known_D0_D1
        L0, L1 = obj.known_L0_L1
        pc = ProblemConstants(
            L0=L0, L1=L1, D0=D0, D1=D1, n=2, d=1, f_gap=obj.value(x0) - obj.known_min
        )
        tc = compute_constants(beta1, beta2, eta1, pc)
        assert beta2 > gamma_threshold(D1, 2, 1, beta1)
        feas = eta1_feasible(tc, pc)
        assert feas.ok, (feas.max_eta_smooth, feas.max_eta_second)
        for T in (100, 1000):
            params = AdamParams(
                beta1=beta1,
                beta2=beta2,
                eta1=eta1,
                xi=xi,
                schedule="Diminishing",
                epochs=T,
                init_mode="PaperTheory",
                seed=7,
                record_steps=False,
            )
            traj = adam_run(obj, x0, params)
            assert traj.status == STATUS_COMPLETED
            rep = check_theorem1(traj, pc, tc, xi)
            assert rep.verdict != VERDICT_VIOLATED
            if forced is not None:
                assert rep.verdict == forced


# 6 ------------------------------------------------------------------------


def test_curvature_probe_tracks_exponential_branch():
    obj, _, _ = make_lowerbound(1.0, 1.0, 10**4, 100.0, 199.0)
    seg = 1e-3
    pairs = []
    for i in range(1000):
        x = 1.05 + (4.5 - 1.05) * i / 999.0
        est = local_smoothness(obj, [x, 0.0], [x + seg, 0.0]).estimate
        truth = math.exp(x - 1.0)
        assert abs(est - truth) <= 0.05 * truth
        pairs.append((abs(expquad_grad(x, 1.0, 1.0)), est))
    fit = l0l1_fit(pairs)
    assert not fit.flat
    # log-smoothness vs log-gradient: unit slope, intercept log of the
    # exponential rate (here 0)
    assert abs(fit.slope - 1.0) <= 0.05
    assert abs(fit.intercept) <= 0.05
    assert fit.L1_hat == pytest.approx(1.0, rel=0.06)


# 7 ------------------------------------------------------------------------


def test_trajectories_invariant_under_objective_scaling():
    x0 = [-2.0]
    for init_mode in ("PaperTheory", "ZeroState"):
        params = AdamParams(
            beta1=0.9,
            beta2=0.999,
            eta1=0.1,
            xi=0.0,
            schedule="Diminishing",
            epochs=100,
            init_mode=init_mode,
            seed=3,
            record_steps=False,
        )
        ref = adam_run(zhang_counterexample(1.0), x0, params)
        assert ref.status == STATUS_COMPLETED
        for c in (10.0, 0.01):
            traj = adam_run(zhang_counterexample(c), x0, params)
            assert traj.status == STATUS_COMPLETED
            assert len(traj.epochs) == len(ref.epochs)
            for u, v in zip(ref.epochs.w0.ravel(), traj.epochs.w0.ravel()):
                assert v == pytest.approx(u, rel=1e-9, abs=1e-30)
            for u, v in zip(ref.final_w, traj.final_w):
                assert v == pytest.approx(u, rel=1e-9, abs=1e-30)


# 8 ------------------------------------------------------------------------


def test_noise_envelope_is_sound_on_counterexample_grid():
    obj = zhang_counterexample()
    pts = [[-3.0 + 6.0 * i / 999.0] for i in range(1000)]
    fit = affine_noise_fit(obj, pts)
    assert fit.n_points == 1000
    assert fit.max_violation <= 1e-9
    assert fit.D1_hat > 0.0


# 9 ------------------------------------------------------------------------


def _tree_digest(root):
    acc = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                acc[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return acc


def test_reruns_and_permuted_sweeps_are_bit_identical(tmp_path):
    def custom_config():
        return ExperimentConfig(
            experiment="Custom",
            objective=to_spec(zhang_counterexample()),
            seeds=[5],
            T=200,
            options={"algo": "adam", "x0": [-2.0], "record_steps": True},
        )

    emit(run_experiment(custom_config()), str(tmp_path / "a"))
    emit(run_experiment(custom_config()), str(tmp_path / "b"))
    da = _tree_digest(tmp_path / "a")
    db = _tree_digest(tmp_path / "b")
    assert da == db
    assert any(p.endswith("trajectory.csv") for p in da)

    base = merge_config(default_config_for("Fig3"), {"T": 50})
    permuted = merge_config(
        default_config_for("Fig3"),
        {"T": 50, "seeds": [3, 1, 2], "options": {"beta2_grid": [0.999, 0.9, 0.99]}},
    )
    ra = run_experiment(base).report
    rb = run_experiment(permuted).report
    ra.pop("config")
    rb.pop("config")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


# 10 -----------------------------------------------------------------------
# Double-entry check: the constant chain retyped independently of theory.py,
# then compared term by term on a random parameter grid.


def _g_alt(b2, n):
    t1 = b2 ** (-(n - 1) / 2.0) - 1.0
    t2 = 1.0 - (b2 ** (n - 1) + 8.0 * n * (1.0 - b2 ** (n - 1)) / b2 ** n) ** -0.5
    t3 = 1.0 - math.sqrt(b2)
    den = b2 ** n - 2.0 * n * (1.0 - b2)
    t4 = math.inf if den <= 0.0 else math.sqrt(b2 ** (n + 1) / den) - 1.0
    return max(t1, t2, t3, t4)


def _constants_alt(b1, b2, n, d, eta, L0, L1, D0, D1):
    sD0, sD1, sn, sd = math.sqrt(D0), math.sqrt(D1), math.sqrt(n), math.sqrt(d)
    sb = math.sqrt(b2)
    bn = b2 ** n
    hull = 1.0 - math.sqrt(bn)
    mom = (1.0 + b1) / (1.0 - b1)
    ell0 = n * L0 + L1 * sn * sD0

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
    gv = _g_alt(b2, n)
    if math.isinf(gv):
        for i in range(8, 14):
            c[i] = math.inf
        return c, gv
    short = SQRT2 * n / math.sqrt(bn)
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


def _unit(rng: SplitMix64) -> float:
    """Uniform float in [0, 1) with 53 random bits from the stream."""
    return (rng.next_u64() >> 11) * (2.0 ** -53)


def _random_constant_rows():
    rng = SplitMix64(123)
    rows = []
    while len(rows) < 20:
        b1 = (0.0, 0.5, 0.9)[rng.randbelow(3)]
        b2 = 1.0 - 10.0 ** -(1.5 + 2.0 * _unit(rng))
        if b1 * b1 >= b2:
            continue
        n = (2, 5, 10)[rng.randbelow(3)]
        d = (1, 2)[rng.randbelow(2)]
        eta = 10.0 ** -(1.0 + 2.0 * _unit(rng))
        L0 = 0.5 + 3.5 * _unit(rng)
        L1 = 0.0 if rng.randbelow(4) == 0 else 2.0 * _unit(rng)
        D0 = 10.0 * _unit(rng)
        D1 = 0.5 + 3.5 * _unit(rng)
        rows.append((b1, b2, n, d, eta, L0, L1, D0, D1))
    return rows


def test_constant_chain_double_entry_on_random_grid():
    rows = _random_constant_rows()
    assert len(rows) == 20
    for row in rows:
        b1, b2, n, d, eta, L0, L1, D0, D1 = row
        pc = ProblemConstants(L0=L0, L1=L1, D0=D0, D1=D1, n=n, d=d, f_gap=1.0)
        tc = compute_constants(b1, b2, eta, pc)
        alt, gv = _constants_alt(b1, b2, n, d, eta, L0, L1, D0, D1)
        assert tc.g_value == pytest.approx(gv, rel=1e-12)
        for i in range(1, 14):
            got = getattr(tc, f"C{i}")
            want = alt[i]
            if math.isinf(want):
                assert math.isinf(got), (i, row)
            else:
                assert got == pytest.approx(want, rel=1e-12), (i, row)


def test_beta2_threshold_solves_its_equation_on_random_grid():
    rng = SplitMix64(321)
    checked = 0
    while checked < 20:
        b1 = (0.0, 0.5, 0.9)[rng.randbelow(3)]
        n = (2, 5)[rng.randbelow(2)]
        d = (1, 2)[rng.randbelow(2)]
        D1 = 0.5 + 3.5 * _unit(rng)
        gamma = gamma_threshold(D1, n, d, b1)
        rhs = 1.0 / (
            2.0 * (4.0 + SQRT2) * math.sqrt(D1) * (n - 1.0 + (1.0 + b1) / (1.0 - b1))
        )
        lhs = math.sqrt(d) * g_of_beta2(gamma, n) * n / gamma ** (n / 2.0)
        assert abs(lhs - rhs) <= 1e-10 * rhs, (b1, n, d, D1)
        checked += 1
    assert checked == 20
