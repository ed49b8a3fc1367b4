"""Empirical probes: local smoothness, noise envelopes, and lemma checks.

These measure what the analytic side predicts: directional gradient-Lipschitz
estimates along segments, one minimal affine upper envelope fitted both to
per-component gradient second moments (D0, D1) and to smoothness against
gradient norm (L0, L1), and per-step audits of the update-magnitude and
momentum-gap bounds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .landscapes import FiniteSumObjective, _sum, check_point
from .optimizers import Trajectory, aux_sequence
from .schema import Size, check
from .theory import TheoryConstants

DEGENERATE_SEGMENT = 1e-14

# l0l1_fit calls smoothness estimates flat (a constant-curvature landscape)
# when their spread is at most this share of their magnitude.
FLAT_REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# local smoothness along a segment


@dataclass(frozen=True)
class SmoothnessEstimate:
    estimate: float
    degenerate: bool


def _check_alpha(alpha: float) -> int:
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    m = round(1.0 / alpha)
    if abs(alpha * m - 1.0) > 1e-12:  # alpha <= 1, so m >= 1
        raise ValueError("alpha must be 1/m for an integer m >= 1")
    return m


def local_smoothness(
    obj: FiniteSumObjective,
    w_a: Sequence[float],
    w_b: Sequence[float],
    alpha: float = 0.1,
) -> SmoothnessEstimate:
    """max over gamma in {alpha, 2 alpha, ..., 1} of
    |grad f(w_a + gamma (w_b - w_a)) - grad f(w_a)| / (gamma |w_b - w_a|).

    alpha must be the reciprocal of an integer so the grid ends exactly at
    w_b. Segments shorter than 1e-14 return a degenerate estimate (NaN).
    """
    m = _check_alpha(alpha)
    w_a, w_b = check_point(obj, w_a), check_point(obj, w_b)
    seg = [w_b[l] - w_a[l] for l in range(obj.d)]
    seg_norm = math.hypot(*seg)
    if seg_norm < DEGENERATE_SEGMENT:
        return SmoothnessEstimate(math.nan, True)
    g0 = obj.full_grad(w_a)
    best = 0.0
    for step in range(1, m + 1):
        gamma = step / m
        w = [w_a[l] + gamma * seg[l] for l in range(obj.d)]
        g = obj.full_grad(w)
        diff = math.hypot(*(g[l] - g0[l] for l in range(obj.d)))
        val = diff / (gamma * seg_norm)
        if val > best:
            best = val
    return SmoothnessEstimate(best, False)


def smoothness_pairs(
    obj: FiniteSumObjective,
    traj: Trajectory,
    alpha: float = 0.1,
    stride: Size = 1,
) -> list[tuple[float, float]]:
    """(gradient norm at w_k, smoothness estimate on [w_k, w_{k+1}]) for
    consecutive epoch-boundary snapshots; degenerate or non-finite pairs are
    skipped."""
    check(smoothness_pairs, stride=stride)
    out: list[tuple[float, float]] = []
    w0 = traj.epochs.w0
    finite = np.isfinite(w0).all(axis=1).tolist()
    norms = traj.epochs.grad_norm.tolist()
    for idx in range(0, len(w0) - 1, stride):
        if not (finite[idx] and finite[idx + 1]):
            continue
        est = local_smoothness(obj, w0[idx].tolist(), w0[idx + 1].tolist(), alpha=alpha)
        if est.degenerate or not math.isfinite(est.estimate):
            continue
        out.append((norms[idx], est.estimate))
    return out


# ---------------------------------------------------------------------------
# affine upper envelope


@dataclass(frozen=True)
class AffineNoiseFit:
    D0_hat: float
    D1_hat: float
    max_violation: float
    n_points: int


def noise_pairs(obj: FiniteSumObjective, points: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    """(u, v) per point: u = |grad f|^2, v = mean_j |grad f_j|^2."""
    pairs = []
    for p in points:
        p = check_point(obj, p)
        g = obj.full_grad(p)
        u = _sum([v * v for v in g])
        acc = 0.0
        for j in range(obj.n):
            gj = obj.component_grad(j, p)
            acc += _sum([v * v for v in gj])
        pairs.append((u, acc / obj.n))
    return pairs


def _upper_hull(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Upper convex hull, left to right (monotone chain)."""
    uniq: dict[float, float] = {}
    for u, v in pts:
        if u not in uniq or v > uniq[u]:
            uniq[u] = v
    ordered = sorted(uniq.items())
    hull: list[tuple[float, float]] = []
    for p in ordered:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # pop while the middle point is below or on the chord
            if (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def affine_envelope(pairs: Sequence[tuple[float, float]]) -> AffineNoiseFit:
    """Minimal affine upper envelope v <= D1 u + D0 of (u, v) pairs, with
    D0, D1 >= 0, minimizing D0 + D1 * median(u).

    The optimum is attained either on a line through two adjacent upper-hull
    vertices or on one of the two axis-aligned single-support lines
    (D1 = 0 with D0 = max v, or D0 = 0 with D1 = max v/u).
    """
    pts = [(float(u), float(v)) for u, v in pairs]
    if not pts:
        raise ValueError("need at least one sample point")
    med_u = statistics.median(u for u, _ in pts)
    max_v = max(v for _, v in pts)

    candidates: list[tuple[float, float]] = [(max(0.0, max_v), 0.0)]  # horizontal
    if all(v <= 0.0 for u, v in pts if u == 0.0):
        pos = [(u, v) for u, v in pts if u > 0.0]
        if pos:
            slope = max(v / u for u, v in pos)
            if slope >= 0.0:
                candidates.append((0.0, slope))

    hull = _upper_hull(pts)
    for a, b in zip(hull, hull[1:]):
        du = b[0] - a[0]
        if du <= 0.0:
            continue
        d1 = (b[1] - a[1]) / du
        d0 = a[1] - d1 * a[0]
        if d1 >= 0.0 and d0 >= 0.0:
            candidates.append((d0, d1))

    def violation(d0: float, d1: float) -> float:
        return max(v - (d0 + d1 * u) for u, v in pts)

    scale = max(1.0, max(abs(v) for _, v in pts), max(abs(u) for u, _ in pts))
    feas_tol = 1e-9 * scale
    # the horizontal line always stays: its violation is <= 0, or NaN for a
    # non-finite v. The first candidate of least objective wins.
    d0, d1 = min(
        (c for c in candidates if not violation(*c) > feas_tol),
        key=lambda c: c[0] + c[1] * med_u,
    )
    return AffineNoiseFit(
        D0_hat=d0,
        D1_hat=d1,
        max_violation=max(0.0, violation(d0, d1)),
        n_points=len(pts),
    )


def affine_noise_fit(obj: FiniteSumObjective, points: Sequence[Sequence[float]]) -> AffineNoiseFit:
    """The (D0, D1) envelope of the noise pairs at the sampled points."""
    return affine_envelope(noise_pairs(obj, points))


# ---------------------------------------------------------------------------
# smoothness-vs-gradient-norm fit


@dataclass(frozen=True)
class L0L1Fit:
    L0_hat: float  # intercept of the envelope est <= L0 + L1 * gnorm
    L1_hat: float  # slope of the envelope
    slope: float  # log-log slope
    intercept: float  # log-log intercept
    r_squared: float  # of the log-log fit
    flat: bool  # estimates show no dependence on gradient norm


def l0l1_fit(pairs: Sequence[tuple[float, float]]) -> L0L1Fit:
    """Fit smoothness estimates against gradient norms.

    (L0_hat, L1_hat) is the affine_envelope of the (gnorm, est) pairs, so
    no pair lies above est = L0_hat + L1_hat * gnorm; log-log fit
    log est = slope * log gnorm + intercept on the strictly positive pairs.
    ``flat`` is set when the estimates' relative spread is at most
    FLAT_REL_TOL.
    """
    if len(pairs) < 2:
        raise ValueError("need at least two pairs")
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite pair values")

    spread = float(y.max() - y.min())
    flat = spread <= FLAT_REL_TOL * max(1.0, float(np.abs(y).max()))
    env = affine_envelope(pairs)

    mask = (x > 0.0) & (y > 0.0)
    if int(mask.sum()) >= 2 and float(np.ptp(np.log(x[mask]))) > 0.0:
        lx, ly = np.log(x[mask]), np.log(y[mask])
        slope, intercept = (float(c) for c in np.polyfit(lx, ly, 1))
        pred = slope * lx + intercept
        ss_res = float(np.sum((ly - pred) ** 2))
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    else:
        slope, intercept, r2 = 0.0, float(np.log(y.mean())) if y.mean() > 0 else math.nan, 1.0
    return L0L1Fit(
        L0_hat=env.D0_hat, L1_hat=env.D1_hat, slope=slope, intercept=intercept,
        r_squared=r2, flat=flat,
    )


# ---------------------------------------------------------------------------
# per-step lemma audits


@dataclass(frozen=True)
class LemmaReport:
    name: str
    checked: int
    violation_count: int
    max_ratio: float  # max over checks of value / bound (0.0 when nothing checked)


def _lemma_report(name: str, *checks: tuple[np.ndarray, np.ndarray | float]) -> LemmaReport:
    """Report over (value, bound) pairs, each bound broadcasting to its
    value: a check fails when value > bound and feeds value / bound (0.0 for
    a zero bound) to max_ratio, which starts at 0.0. A NaN never wins a
    comparison."""
    checked, violations, peak = 0, 0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for value, bound in checks:
            checked += value.size
            violations += int(np.count_nonzero(value > bound))
            ratio = np.where(bound == 0.0, 0.0, value / bound)
            peak = float(np.fmax.reduce(ratio, axis=None, initial=peak))
    return LemmaReport(name, checked, violations, peak if peak > 0.0 else 0.0)


def check_bounded_update(traj: Trajectory, tc: TheoryConstants) -> LemmaReport:
    """Audit |m_l| / (sqrt(nu_l) + xi) <= C1 and |delta w_l| <= C1 eta_k on
    every recorded inner step (needs record_steps=True); eta_k is the step
    size stored in epoch k's snapshot. C1 >= 1 by its formula."""
    s = traj.steps
    cap = (tc.C1 * traj.epochs.eta[s.k - 1])[:, None]
    return _lemma_report("bounded_update", (s.ratio, tc.C1), (s.update_abs, cap))


def check_u_gap(traj: Trajectory, tc: TheoryConstants) -> LemmaReport:
    """Audit the momentum-corrected sequence u_k = (w_{k,0} - beta1
    w_{k,-1}) / (1 - beta1): per-coordinate |u_k - w_{k,0}| <= C2 eta_k and
    |u_{k+1} - u_k| <= C2 eta_k on epoch-boundary snapshots."""
    e = traj.epochs
    u = aux_sequence(traj, tc.beta1)
    cap = (tc.C2 * e.eta)[:, None]
    return _lemma_report("u_gap", (np.abs(u - e.w0), cap), (np.abs(u[1:] - u[:-1]), cap[:-1]))
