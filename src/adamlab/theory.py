"""Closed-form constants, admissibility thresholds, and bound checks.

Two analytic artifacts are implemented:

* a convergence bound for reshuffled Adam on finite sums whose components
  obey a gradient-proportional smoothness condition and an affine
  second-moment (noise) bound. ``compute_constants`` materializes the
  thirteen composite constants appearing in the bound's right-hand side;
  ``progress_metric`` is the quantity whose min over epoch starts is its
  left-hand side; ``theorem1_rhs``/``check_theorem1`` evaluate the bound
  against a recorded trajectory.

* a two-dimensional divergence/slow-progress construction for plain
  gradient descent, sized by ``theorem2_construction``: at or above a start
  step size ``eta_star`` the x-coordinate blows up by at least sqrt(2) per
  step; below it, the gradient norm stays at least ``epsilon`` for
  ``slow_horizon`` steps.

All formulas are plain float arithmetic; nothing here runs an optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .schema import Beta1, Beta2, CubeFinite, NonNegative, Positive, Size, SquarePositive, check

SQRT2 = math.sqrt(2.0)
LEAD = 4.0 * (2.0 * SQRT2 + 1.0)  # leading factor of the bound and of its second step-size cap


class ConstraintViolation(ValueError):
    """A construction's admissibility condition failed. Carries detail."""

    def __init__(self, message: str, detail: Optional[dict] = None) -> None:
        super().__init__(message)
        self.detail = detail or {}


class NoRootError(ValueError):
    """Threshold equation has no sign change inside the search bracket."""


class NonMonotoneError(ValueError):
    """Threshold LHS failed its monotonicity precondition on the bracket."""


# ---------------------------------------------------------------------------
# problem-level constants


@dataclass(frozen=True)
class ProblemConstants:
    """Landscape-level inputs: pairwise smoothness pair (L0, L1), affine
    noise envelope (D0, D1), component count n, dimension d, and the value
    gap f(w0) - inf f."""

    L0: NonNegative
    L1: NonNegative
    D0: NonNegative
    D1: NonNegative
    n: Size
    d: Size
    f_gap: NonNegative

    def __post_init__(self) -> None:
        check(ProblemConstants, **vars(self))


# ---------------------------------------------------------------------------
# the second-moment memory factor


def g_of_beta2(beta2: Beta2, n: Size) -> float:
    """Largest of four drift factors measuring how far one epoch's
    second-moment accumulator can move relative to itself.

    Returns +inf when (1 - beta2) * 2n / beta2^n >= 1 (memory too short for
    the epoch length); decreases to 0 as beta2 -> 1.
    """
    check(g_of_beta2, beta2=beta2, n=n)
    return _g(beta2, n)


def _g(beta2: float, n: int) -> float:
    """g_of_beta2 without its argument check: compute_constants has made
    it, and gamma_threshold's scan and bisection stay inside (0, 1)."""
    bn = beta2 ** n
    if bn == 0.0:  # beta2^n underflows: memory too short, and t2 and t4 divide by it
        return math.inf
    bnm1 = beta2 ** (n - 1)
    t1 = 1.0 / math.sqrt(bnm1) - 1.0
    t2 = 1.0 - 1.0 / math.sqrt(bnm1 + 8.0 * n * (1.0 - bnm1) / bn)
    t3 = 1.0 - math.sqrt(beta2)
    inner = 1.0 - (1.0 - beta2) * 2.0 * n / bn
    if inner <= 0.0:
        t4 = math.inf
    else:
        t4 = math.sqrt(beta2 / inner) - 1.0
    return max(t1, t2, t3, t4)


def _momentum_factor(n: int, beta1: float) -> float:
    """n - 1 + (1 + beta1) / (1 - beta1), shared by the bound's constants,
    its neighborhood branch and the beta2 threshold."""
    return n - 1.0 + (1.0 + beta1) / (1.0 - beta1)


# ---------------------------------------------------------------------------
# composite constants of the convergence bound


@dataclass(frozen=True)
class TheoryConstants:
    C1: float
    C2: float
    C3: float
    C4: float
    C5: float
    C6: float
    C7: float
    C8: float
    C9: float
    C10: float
    C11: float
    C12: float
    C13: float
    g_value: float
    smooth_L0: float  # additive smoothness constant of the averaged objective
    smooth_L1: float  # gradient-proportional smoothness constant of the average
    beta1: float
    beta2: float
    n: int
    d: int
    eta1: float


def compute_constants(beta1: Beta1, beta2: Beta2, eta1: CubeFinite, pc: ProblemConstants) -> TheoryConstants:
    """Materialize the thirteen composite constants, for the component
    count n and dimension d of pc.

    Domain: 0 <= beta1 < 1, 0 < beta2 < 1, beta1^2 < beta2, eta1 > 0 with a
    finite cube (CubeFinite). When g(beta2) is infinite (memory too short),
    C8..C13 come back +inf; the admissibility threshold beta2 > gamma
    excludes that region anyway. Two denominators can round to zero inside
    that domain: 1 - sqrt(beta2^n), at n = 1 and beta2 within an ulp of 1,
    and (1 - beta1) * eta1, for an eta1 near the smallest float. Either
    raises ValueError, as every refusal here does, with a message led by
    the name of the argument at fault.
    """
    check(compute_constants, beta1=beta1, beta2=beta2, eta1=eta1)
    if beta1 * beta1 >= beta2:
        raise ValueError("beta1: need beta1^2 < beta2")

    L0, L1, D0, D1, n, d = pc.L0, pc.L1, pc.D0, pc.D1, pc.n, pc.d
    sD0, sD1 = math.sqrt(D0), math.sqrt(D1)
    sqn = math.sqrt(n)
    sqd = math.sqrt(d)
    bn = beta2 ** n
    sb2 = math.sqrt(beta2)
    s_bn = beta2 ** (n / 2.0)
    mom = _momentum_factor(n, beta1)

    C1 = (1.0 - beta1) ** 2 / (1.0 - beta2) / (1.0 - beta1 * beta1 / beta2) + 1.0
    C2 = n * C1 + beta1 / (1.0 - beta1) * C1 * (1.0 + SQRT2)
    C3 = C1 * (
        n * (L0 + L1 * sD0)
        + 2.0 * SQRT2 * (L0 + L1 * sD0) * (math.sqrt(1.0 - beta2) / (1.0 - sb2)) * (sb2 / (1.0 - sb2))
        + 8.0 * math.sqrt(2.0 * n) * L0 / (1.0 - bn)
    )
    C4 = 4.0 * L1 * C1 * sD1 * math.sqrt(1.0 - beta2) / (1.0 - sb2)
    hull = 1.0 - s_bn  # 1 - sqrt(beta2^n)
    if hull == 0.0:
        raise ValueError(f"beta2: 1 - sqrt(beta2**n) is 0.0 at beta2 {beta2!r} and n {n}, and C5, C6 and C7 divide by it")
    C5 = n * n * (1.0 + n * sqd * C1 * eta1 * L1 * sqn * sD1) * (C4 + d * C4 * sD1 / hull)
    C6 = (d * C3 + C4 * n * sD1 / hull) * eta1 * eta1
    C7 = (
        3.0 * n * (C4 + d * C4 / hull) * (n * L0 + L1 * sqn * sD0) * n * n * sqd * C1 * eta1 ** 3
        + (d * C3 + C2 * C4 * n * sD1 / hull) * eta1 * eta1
    )

    gval = _g(beta2, n)
    if math.isinf(gval):
        C8 = C9 = C10 = C11 = C12 = C13 = math.inf
    elif (1.0 - beta1) * eta1 == 0.0:
        raise ValueError(f"eta1: (1 - beta1) * eta1 is 0.0 at beta1 {beta1!r} and eta1 {eta1!r}, and C8 divides by it")
    else:
        root2n = SQRT2 * n / s_bn  # sqrt(2 n^2 / beta2^n)
        C8 = (
            math.sqrt(2.0 * n * n / bn) * L1 * sD1 * n * sqn
            + d * gval * mom * root2n * L1 * C1 * sD1 * (1.0 + 1.0 / (1.0 - bn))
            * (n + n ** 2.5 * sqd * C1 * eta1 * L1 * sD1)
            + 2.0 * beta1 / ((1.0 - beta1) * eta1) * sqd * C1
        )
        C9 = (
            math.sqrt(2.0 * n * n / bn) * d * (n * n * L0 + n * sqn * L1 * sD0) * C1 * eta1 * eta1
            + gval * mom * root2n * (n + 2.0 * SQRT2 * beta1 / (1.0 - beta1))
            * C1 * (L0 + L1 * sD0) * d * sqd * eta1 * eta1
        )
        C10 = (
            3.0 * d * gval * mom * root2n * L1 * C1 * sD1 * (1.0 + 1.0 / (1.0 - bn))
            * n * (n * L0 + L1 * sqn * sD0) * n * sqd * C1 * eta1 ** 3
            + C9
        )
        C11 = (0.5 + C2) * C5 + C8 + 1.5 * L1 * sqn * sD1 * C2 * C2 * d
        C12 = (0.5 + C2) * C6 + C9 + 0.5 * (n * L0 + L1 * sqn * sD0) * 3.0 * C2 * C2 * d * eta1 * eta1
        C13 = (0.5 + C2) * C7 + C10 + 0.5 * (n * L0 + L1 * sqn * sD0) * 3.0 * C2 * C2 * d * eta1 * eta1

    return TheoryConstants(
        C1=C1, C2=C2, C3=C3, C4=C4, C5=C5, C6=C6, C7=C7, C8=C8, C9=C9, C10=C10,
        C11=C11, C12=C12, C13=C13,
        g_value=gval,
        smooth_L0=n * L0 + L1 * sqn * sD0,
        smooth_L1=L1 * sqn * sD1,
        beta1=beta1,
        beta2=beta2,
        n=n,
        d=d,
        eta1=eta1,
    )


# ---------------------------------------------------------------------------
# beta2 admissibility threshold

# gamma_threshold's bracket search: the left end lies on a grid of this step,
# and the LHS must not rise by more than this relative tolerance between
# this many evenly spaced points of the bracket.
GAMMA_SCAN_STEP = 1e-4
GAMMA_SCAN_POINTS = 1000
GAMMA_MONO_TOL = 1e-12


def _gamma_lhs(x: float, n: int, d: int) -> float:
    return math.sqrt(d) * _g(x, n) * n / (x ** (n / 2.0))


def gamma_threshold(D1: Positive, n: Size, d: Size, beta1: Beta1) -> float:
    """Smallest admissible beta2: the root of

        sqrt(d) * g(x) * n / x^(n/2)  =  1 / (2 (4+sqrt2) sqrtD1 (n-1+(1+b1)/(1-b1)))

    Bracket: left end = smallest beta2 on a GAMMA_SCAN_STEP grid where g is
    finite; right end = 1 - 1e-12. The LHS is checked to be decreasing, up
    to GAMMA_MONO_TOL, on GAMMA_SCAN_POINTS evenly spaced points of the
    bracket (NonMonotoneError otherwise), then bisected until no
    representable midpoint remains; the endpoint with the smaller residual
    is returned. NoRootError if the target is outside [LHS(hi), LHS(lo)].
    """
    check(gamma_threshold, D1=D1, n=n, d=d, beta1=beta1)

    rhs = 1.0 / (2.0 * (4.0 + SQRT2) * math.sqrt(D1) * _momentum_factor(n, beta1))

    lo = None
    x = GAMMA_SCAN_STEP
    while x < 1.0:
        if math.isfinite(_g(min(x, 1.0 - 1e-12), n)):
            lo = min(x, 1.0 - 1e-12)
            break
        x += GAMMA_SCAN_STEP
    if lo is None:
        raise NoRootError("g is infinite on the whole scan grid")
    hi = 1.0 - 1e-12

    # monotonicity precondition
    prev = _gamma_lhs(lo, n, d)
    for idx in range(1, GAMMA_SCAN_POINTS + 1):
        xx = lo + (hi - lo) * idx / GAMMA_SCAN_POINTS
        cur = _gamma_lhs(xx, n, d)
        if cur > prev + GAMMA_MONO_TOL * max(1.0, abs(prev)):
            raise NonMonotoneError(
                f"threshold LHS increased at x={xx!r}: {prev!r} -> {cur!r}"
            )
        prev = cur

    f_lo = _gamma_lhs(lo, n, d) - rhs
    f_hi = _gamma_lhs(hi, n, d) - rhs
    if f_lo < 0.0:
        raise NoRootError("target above LHS at bracket start (always admissible?)")
    if f_hi > 0.0:
        raise NoRootError("target below LHS at bracket end (never admissible)")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # no representable point between the endpoints
        if _gamma_lhs(mid, n, d) - rhs > 0.0:
            lo = mid
        else:
            hi = mid
    # endpoint with the smaller residual
    if abs(_gamma_lhs(lo, n, d) - rhs) <= abs(_gamma_lhs(hi, n, d) - rhs):
        return lo
    return hi


# ---------------------------------------------------------------------------
# step-size feasibility


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    max_eta_smooth: float  # cap from 2 C2 sqrt(d) eta1 <= 1 / L1
    max_eta_second: float  # cap from sqrt(D1) C11 eta1 <= 1 / (4 (2 sqrt2 + 1))
    margin_smooth: float
    margin_second: float


def eta1_feasible(tc: TheoryConstants, pc: ProblemConstants) -> FeasibilityReport:
    """Check the two start-step-size conditions the bound needs."""
    eta1 = tc.eta1
    denom1 = 2.0 * tc.C2 * math.sqrt(tc.d) * pc.L1
    cap1 = math.inf if denom1 == 0.0 else 1.0 / denom1
    denom2 = LEAD * math.sqrt(pc.D1) * tc.C11
    cap2 = math.inf if denom2 == 0.0 else 1.0 / denom2
    m1 = cap1 - eta1
    m2 = cap2 - eta1
    return FeasibilityReport(
        ok=(m1 >= 0.0) and (m2 >= 0.0),
        max_eta_smooth=cap1,
        max_eta_second=cap2,
        margin_smooth=m1,
        margin_second=m2,
    )


# ---------------------------------------------------------------------------
# the convergence bound


def theorem1_rhs(T: Size, tc: TheoryConstants, pc: ProblemConstants, xi: NonNegative) -> tuple[float, float]:
    """(main_rhs, neighborhood_rhs) of the bound at horizon T epochs.

    main_rhs bounds min_k min{ |grad|/sqrt(D1), |grad|^2/(sqrt(D0)+xi) };
    neighborhood_rhs bounds min_k |grad| directly in the short-memory regime.
    """
    check(theorem1_rhs, T=T, xi=xi)
    if pc.D1 <= 0.0:
        raise ValueError("main branch needs D1 > 0")
    eta1 = tc.eta1
    rt = math.sqrt(T)
    mix = (math.sqrt(pc.D0) + xi) / (4.0 * math.sqrt(pc.D1))
    main = (
        LEAD * pc.f_gap / (eta1 * rt)
        + LEAD * (tc.C12 + mix * tc.C11 * eta1 * eta1) * math.log(T) / (eta1 * rt)
        + LEAD * (tc.C13 + mix * tc.C11) / (eta1 * rt)
    )
    neigh = (
        2.0
        * math.sqrt(tc.d)
        * (2.0 * SQRT2 + 1.0)
        * math.sqrt(pc.D0)
        * tc.g_value
        * _momentum_factor(tc.n, tc.beta1)
        * math.sqrt(2.0 * tc.n / (tc.beta2 ** tc.n))
    )
    return main, neigh


def progress_metric(grad_norm: float, D0: NonNegative, D1: Positive, xi: NonNegative) -> float:
    """min{ gn / sqrt(D1), gn^2 / (sqrt(D0) + xi) } at one snapshot; the
    bound's left-hand side is its min over epoch starts. A zero denominator
    gives +inf."""
    check(progress_metric, D0=D0, D1=D1, xi=xi)
    den = math.sqrt(D0) + xi
    quad = math.inf if den == 0.0 else grad_norm * grad_norm / den
    return min(grad_norm / math.sqrt(D1), quad)


VERDICT_MAIN = "MainBranchHolds"
VERDICT_NEIGHBORHOOD = "NeighborhoodBranchHolds"
VERDICT_VIOLATED = "Violated"


@dataclass(frozen=True)
class BoundReport:
    main_rhs: float
    neighborhood_rhs: float
    trajectory_lhs: float  # min_k of the mixed progress metric
    min_grad_norm: float
    T: int
    verdict: str
    detail: dict = field(default_factory=dict)


def check_theorem1(traj, pc: ProblemConstants, tc: TheoryConstants, xi: float) -> BoundReport:
    """Evaluate the bound against recorded epoch-start gradients.

    Uses snapshots k = 1..T (a closing boundary snapshot of a completed run
    is excluded to match the bound's stated range). Verdict favors the main
    branch; Violated only when both sides fail with relative slack 1e-9.
    """
    norms = traj.epoch_start_norms().tolist()
    if not norms:
        raise ValueError("trajectory has no epoch snapshots")
    T = len(norms)
    main_rhs, neigh_rhs = theorem1_rhs(T, tc, pc, xi)
    # both mins start from +inf, so a NaN norm never wins
    lhs = min(math.inf, *(progress_metric(gn, pc.D0, pc.D1, xi) for gn in norms))
    min_gn = min(math.inf, *norms)

    slack = 1.0 + 1e-9
    main_ok = lhs <= main_rhs * slack
    neigh_ok = min_gn <= neigh_rhs * slack
    if main_ok:
        verdict = VERDICT_MAIN
    elif neigh_ok:
        verdict = VERDICT_NEIGHBORHOOD
    else:
        verdict = VERDICT_VIOLATED
    return BoundReport(
        main_rhs=main_rhs,
        neighborhood_rhs=neigh_rhs,
        trajectory_lhs=lhs,
        min_grad_norm=min_gn,
        T=T,
        verdict=verdict,
        detail={"main_ok": main_ok, "neighborhood_ok": neigh_ok, "status": traj.status},
    )


# ---------------------------------------------------------------------------
# divergence / slow-progress construction


@dataclass(frozen=True)
class Thm2Construction:
    epsilon: Positive
    x0: float
    y0: float
    eta_star: Positive
    slow_horizon: int
    detail: dict
    axis_gap: float  # f1(x0) - min f1 = f2(y0) - min f2


def _require(detail: dict, *names: str) -> None:
    """ConstraintViolation naming each check of ``names`` that fails."""
    failed = [k for k in names if not detail[k]]
    if failed:
        raise ConstraintViolation(f"construction constraints failed: {failed}", detail)


def _admit(detail: dict, **values: float) -> None:
    """ConstraintViolation, with schema.check's message, for a value outside
    the range of its Thm2Construction field: an epsilon that underflows to
    0.0, a start point or step-size threshold past the float range."""
    try:
        check(Thm2Construction, **values)
    except ValueError as exc:
        raise ConstraintViolation(str(exc), detail) from None


def theorem2_construction(
    L0: Positive,
    L1: SquarePositive,
    T: Size,
    M: Positive,
    f_bar: Positive,
) -> Thm2Construction:
    """Size the two-piece landscape for a horizon of T descent steps.

    eps is chosen so that a rate of order f_bar / (eps sqrt(T)) is exactly
    borderline; the start point (x0, y0) puts the initial value gap at
    2 * axis_gap, the supremum of the gradient norm over the starting
    sublevel set at M, and the slow-progress horizon below T for the
    default sizing f_bar = 2M/L1 - L0/L1^2.

    Hard admissibility (ConstraintViolation otherwise, its detail naming
    every check): M above both the landscape floor and eps; f_bar > 6 eps;
    start y0 inside the linear branch. M above the floor comes first, as
    eps is defined only above it; the others are made once it holds. eps,
    the start point (x0, y0) and eta_star must also lie in their fields'
    ranges (ConstraintViolation with the schema's message otherwise).
    """
    check(theorem2_construction, L0=L0, L1=L1, T=T, M=M, f_bar=f_bar)

    m_floor = 2.0 * (math.exp(math.log(2.0) / (SQRT2 - 1.0) - 1.0) - 0.25) * L0 / L1
    detail = {"m_floor": m_floor, "m_above_floor": M > m_floor}
    _require(detail, "m_above_floor")

    # above the floor q > 1.9, so log(q) + 1 > 0
    q = L1 * M / (2.0 * L0) + 0.25
    logq1 = math.log(q) + 1.0
    ratio = (L1 * M / 2.0 + L0 / 4.0) / (2.0 * (1.0 + SQRT2) * logq1)
    epsilon = math.sqrt(ratio * f_bar / (4.0 * math.sqrt(T)))
    _admit(detail, epsilon=epsilon)  # 0.0 where the product underflows

    x0 = logq1 / L1
    axis_gap = M / (2.0 * L1) - L0 / (4.0 * L1 * L1)  # equals f1(x0) - min f1
    y0 = axis_gap / epsilon + 0.5
    detail.update({
        "m_above_epsilon": M > epsilon,
        "fbar_over_epsilon": f_bar / epsilon,
        "fbar_condition": f_bar / epsilon > 6.0,
        "y0_in_linear_branch": y0 >= 1.0,
        "x0_in_exp_branch": x0 >= 1.0 / L1,
        "value_gap": 2.0 * axis_gap,
    })
    _require(detail, "m_above_epsilon", "fbar_condition", "y0_in_linear_branch")

    # closed form of (1+sqrt2) L1 x0 / (L0 e^{L1 x0 - 1}); inf where the denominator is tiny
    eta_star = (1.0 + SQRT2) * logq1 / (L1 * M / 2.0 + L0 / 4.0)
    _admit(detail, x0=x0, y0=y0, eta_star=eta_star)
    try:
        horizon_f = ratio * ratio * (axis_gap / epsilon - 1.5) ** 2 / (epsilon * epsilon)
    except OverflowError:  # float ** raises where * gives inf
        horizon_f = math.inf
    slow_horizon = int(horizon_f) if math.isfinite(horizon_f) else 0
    detail["slow_horizon_lt_T"] = slow_horizon < T

    return Thm2Construction(
        epsilon=epsilon,
        x0=x0,
        y0=y0,
        eta_star=eta_star,
        slow_horizon=slow_horizon,
        detail=detail,
        axis_gap=axis_gap,
    )
