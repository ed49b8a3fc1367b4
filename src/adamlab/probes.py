"""Empirical probes: local smoothness, noise envelopes, and lemma checks.

These measure what the analytic side predicts: directional gradient-Lipschitz
estimates along segments, the minimal affine envelope of per-component
gradient second moments, linear smoothness-vs-gradient fits, and per-step
audits of the update-magnitude and momentum-gap bounds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .landscapes import FiniteSumObjective
from .optimizers import Trajectory, aux_sequence
from .theory import TheoryConstants

DEGENERATE_SEGMENT = 1e-14


# ---------------------------------------------------------------------------
# local smoothness along a segment


@dataclass(frozen=True)
class SmoothnessEstimate:
    estimate: float
    alpha: float
    segment_norm: float
    grid_points: int
    degenerate: bool


def _check_alpha(alpha: float) -> int:
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    m = round(1.0 / alpha)
    if m < 1 or abs(alpha * m - 1.0) > 1e-12:
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
    if len(w_a) != obj.d or len(w_b) != obj.d:
        raise ValueError("endpoint dimension mismatch")
    seg = [float(w_b[l]) - float(w_a[l]) for l in range(obj.d)]
    seg_norm = math.hypot(*seg)
    if seg_norm < DEGENERATE_SEGMENT:
        return SmoothnessEstimate(math.nan, alpha, seg_norm, m, True)
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
    return SmoothnessEstimate(best, alpha, seg_norm, m, False)


def smoothness_pairs(
    obj: FiniteSumObjective,
    traj: Trajectory,
    alpha: float = 0.1,
    stride: int = 1,
) -> list[tuple[float, float]]:
    """(gradient norm at w_k, smoothness estimate on [w_k, w_{k+1}]) for
    consecutive epoch-boundary snapshots; degenerate or non-finite pairs are
    skipped."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    out: list[tuple[float, float]] = []
    snaps = traj.epochs
    for idx in range(0, len(snaps) - 1, stride):
        a, b = snaps[idx], snaps[idx + 1]
        if not all(math.isfinite(v) for v in (*a.w0, *b.w0)):
            continue
        est = local_smoothness(obj, list(a.w0), list(b.w0), alpha=alpha)
        if est.degenerate or not math.isfinite(est.estimate):
            continue
        out.append((a.grad_norm, est.estimate))
    return out


# ---------------------------------------------------------------------------
# affine noise envelope


@dataclass(frozen=True)
class AffineNoiseFit:
    D0_hat: float
    D1_hat: float
    max_violation: float
    n_points: int
    objective_value: float  # D0_hat + D1_hat * median(u)


def noise_pairs(obj: FiniteSumObjective, points: Sequence[Sequence[float]]) -> list[tuple[float, float]]:
    """(u, v) per point: u = |grad f|^2, v = mean_j |grad f_j|^2."""
    pairs = []
    for p in points:
        g = obj.full_grad(p)
        u = math.fsum(v * v for v in g)
        acc = 0.0
        for j in range(obj.n):
            gj = obj.component_grad(j, p)
            acc += math.fsum(v * v for v in gj)
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


def affine_noise_fit(
    obj: FiniteSumObjective,
    points: Sequence[Sequence[float]],
    pairs: Optional[Sequence[tuple[float, float]]] = None,
) -> AffineNoiseFit:
    """Minimal affine envelope v <= D1 u + D0 over sampled points, with
    D0, D1 >= 0, minimizing D0 + D1 * median(u).

    The optimum is attained either on a line through two adjacent upper-hull
    vertices or on one of the two axis-aligned single-support lines
    (D1 = 0 with D0 = max v, or D0 = 0 with D1 = max v/u).
    """
    if pairs is None:
        pairs = noise_pairs(obj, points)
    pts = [(float(u), float(v)) for u, v in pairs]
    if not pts:
        raise ValueError("need at least one sample point")
    med_u = statistics.median(u for u, _ in pts)
    max_v = max(v for _, v in pts)

    candidates: list[tuple[float, float]] = [(max(0.0, max_v), 0.0)]  # horizontal
    if all(u > 0.0 for u, _ in pts):
        slope = max(v / u for u, v in pts)
        if slope >= 0.0:
            candidates.append((0.0, slope))
    elif all(v <= 0.0 for u, v in pts if u == 0.0):
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
    best: Optional[tuple[float, float, float]] = None
    for d0, d1 in candidates:
        if violation(d0, d1) > feas_tol:
            continue
        objv = d0 + d1 * med_u
        if best is None or objv < best[0]:
            best = (objv, d0, d1)
    if best is None:
        # fall back to the always-feasible horizontal line
        d0, d1 = max(0.0, max_v), 0.0
        best = (d0 + d1 * med_u, d0, d1)
    objv, d0, d1 = best
    return AffineNoiseFit(
        D0_hat=d0,
        D1_hat=d1,
        max_violation=max(0.0, violation(d0, d1)),
        n_points=len(pts),
        objective_value=objv,
    )


# ---------------------------------------------------------------------------
# smoothness-vs-gradient-norm fit


@dataclass(frozen=True)
class L0L1Fit:
    L0_hat: float  # intercept of the linear fit est ~ L0 + L1 * gnorm
    L1_hat: float  # slope of the linear fit
    slope: float  # log-log slope
    intercept: float  # log-log intercept
    r_squared: float  # of the log-log fit
    flat: bool  # estimates show no dependence on gradient norm


def l0l1_fit(pairs: Sequence[tuple[float, float]], flat_rel_tol: float = 1e-6) -> L0L1Fit:
    """Fit smoothness estimates against gradient norms.

    Linear fit est = L0_hat + L1_hat * gnorm by least squares; log-log fit
    log est = slope * log gnorm + intercept on the strictly positive pairs.
    ``flat`` is set when the estimates' relative spread is below
    flat_rel_tol (constant-curvature landscape).
    """
    if len(pairs) < 2:
        raise ValueError("need at least two pairs")
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite pair values")

    spread = float(y.max() - y.min())
    flat = spread <= flat_rel_tol * max(1.0, float(np.abs(y).max()))

    if flat or float(np.ptp(x)) == 0.0:
        l1_hat, l0_hat = 0.0, float(y.mean())
    else:
        l1_hat, l0_hat = (float(c) for c in np.polyfit(x, y, 1))

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
        L0_hat=l0_hat, L1_hat=l1_hat, slope=slope, intercept=intercept,
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
    examples: list = field(default_factory=list)  # first few (k, i, coord, value, bound)


def check_bounded_update(traj: Trajectory, tc: TheoryConstants) -> LemmaReport:
    """Audit |m_l| / (sqrt(nu_l) + xi) <= C1 and |delta w_l| <= C1 eta_k on
    every recorded inner step (needs record_steps=True); eta_k is the step
    size stored in epoch k's snapshot."""
    c1 = tc.C1
    violations = []
    count = 0
    max_ratio = 0.0
    snaps = traj.epochs
    for s in traj.steps:
        cap = c1 * snaps[s.k - 1].eta
        for l, (r, u) in enumerate(zip(s.ratio, s.update_abs)):
            count += 2
            rr = r / c1
            if rr > max_ratio:
                max_ratio = rr
            if r > c1:
                violations.append((s.k, s.i, l, r, c1))
            uu = 0.0 if cap == 0.0 else u / cap
            if uu > max_ratio:
                max_ratio = uu
            if u > cap:
                violations.append((s.k, s.i, l, u, cap))
    return LemmaReport(
        name="bounded_update",
        checked=count,
        violation_count=len(violations),
        max_ratio=max_ratio,
        examples=violations[:10],
    )


def check_u_gap(traj: Trajectory, tc: TheoryConstants) -> LemmaReport:
    """Audit the momentum-corrected sequence u_k = (w_{k,0} - beta1
    w_{k,-1}) / (1 - beta1): per-coordinate |u_k - w_{k,0}| <= C2 eta_k and
    |u_{k+1} - u_k| <= C2 eta_k on epoch-boundary snapshots."""
    c2 = tc.C2
    us = aux_sequence(traj, tc.beta1)
    violations = []
    count = 0
    max_ratio = 0.0
    for snap, u in zip(traj.epochs, us):
        cap = c2 * snap.eta
        for l in range(len(u)):
            gap = abs(u[l] - snap.w0[l])
            count += 1
            rr = 0.0 if cap == 0.0 else gap / cap
            if rr > max_ratio:
                max_ratio = rr
            if gap > cap:
                violations.append((snap.k, -1, l, gap, cap))
    for (sa, ua), ub in zip(zip(traj.epochs, us), us[1:]):
        cap = c2 * sa.eta
        for l in range(len(ua)):
            move = abs(ub[l] - ua[l])
            count += 1
            rr = 0.0 if cap == 0.0 else move / cap
            if rr > max_ratio:
                max_ratio = rr
            if move > cap:
                violations.append((sa.k, -2, l, move, cap))
    return LemmaReport(
        name="u_gap",
        checked=count,
        violation_count=len(violations),
        max_ratio=max_ratio,
        examples=violations[:10],
    )


# ---------------------------------------------------------------------------
# progress metric


def progress_metric(grad_norm: float, D0: float, D1: float, xi: float, variant: str = "restated") -> float:
    """min{ gn / sqrt(D1), gn^2 / (sqrt(D0) + xi) }; the "body" variant
    drops xi from the denominator. Zero denominators give +inf."""
    if D1 <= 0.0:
        raise ValueError("progress metric needs D1 > 0")
    if variant == "restated":
        den = math.sqrt(D0) + xi
    elif variant == "body":
        den = math.sqrt(D0)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    quad = math.inf if den == 0.0 else grad_norm * grad_norm / den
    return min(grad_norm / math.sqrt(D1), quad)


def progress_metric_min(
    traj: Trajectory, D0: float, D1: float, xi: float, variant: str = "restated"
) -> float:
    """Min of the progress metric over epoch-start snapshots k = 1..T (the
    closing boundary of a completed run is excluded)."""
    snaps = traj.epoch_starts()
    if not snaps:
        raise ValueError("trajectory has no epoch snapshots")
    return min(progress_metric(s.grad_norm, D0, D1, xi, variant) for s in snaps)
