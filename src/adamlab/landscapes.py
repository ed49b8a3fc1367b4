"""Finite-sum test landscapes.

Each objective is f(w) = (1/n) * sum_j f_j(w). Component values and gradients
are exposed raw (unaveraged) because reshuffled optimizers consume them one at
a time; ``value`` and ``full_grad`` average.

No method checks its point or index: ``check_point`` refuses a wrong
dimension or a non-finite coordinate once, where a point enters a run or a
probe, and the optimizers guard every iterate they produce.

``mean_values(W)`` is the one entry point for the objective value at many
points: the optimizers fill their ``f_value`` columns with it after a run,
from the stored iterates, never inside their loops. Each row's mean is
``math.fsum`` of the n component values divided by n (their IEEE sum
where ``fsum`` refuses mixed infinities or overflows), exactly as
``value`` computes it. The component values come from a row kernel where
the builder supplies one, equal to the scalar code bit for bit:
``ZhangCounterexample``'s, whose scalar squares are written as products
(libm ``pow`` is not correctly rounded, a product is one IEEE operation),
and ``LowerBound``'s, which keeps ``math.exp`` on its exponential rows
(``np.exp`` is not correctly rounded either). ``QuadraticSum`` and
``Custom`` evaluate row by row with the scalar code.

Built-in kinds:

* ``ZhangCounterexample`` -- one steep quadratic pulling toward x = 1 plus
  nine shallow concave quadratics centered at x = 10/9; the mean is a gentle
  convex quadratic with minimizer x = 0. Adaptive methods with short
  second-moment memory stall at a gradient-size floor on it.
* ``LowerBound`` -- separable 2-d landscape f1(x) + f2(y): f1 is quadratic in
  a central band and exponential outside, f2 is quadratic in a central band
  and linear outside. Gradient-descent step sizes above a computable
  threshold blow up double-exponentially in x; below it, progress is held
  hostage by the flat linear y-branch.
* ``QuadraticSum`` -- components (a_j / 2) * |w - c_j|^2.
* ``Custom`` -- caller-supplied callbacks (not serializable).
"""

from __future__ import annotations

import math
from dataclasses import field, make_dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .schema import Positive, Size, check, parse

Vector = list[float]

# mean_values evaluates about this many component values at a time, in
# blocks of VALUE_BLOCK_VALUES // n rows (at least one). With n > 1 a block's
# values are held as Python floats for math.fsum, so keep it small: blocks of
# 2560 (256 rows of the counterexample's 10 components) raised Fig3's peak RSS
# by about 1 MB, blocks of 640 do not. LowerBound (n = 1) gets 640-row blocks,
# on which NumPy's per-call cost in its row kernel stays small.
VALUE_BLOCK_VALUES = 640

KIND_ZHANG = "ZhangCounterexample"
KIND_LOWERBOUND = "LowerBound"
KIND_QUADRATIC = "QuadraticSum"
KIND_CUSTOM = "Custom"


def _sum(vals: list[float]) -> float:
    """math.fsum of vals, or their IEEE sum left to right where fsum refuses:
    NaN when +inf and -inf are mixed, +-inf when the partial sums overflow."""
    try:
        return math.fsum(vals)
    except (ValueError, OverflowError):
        total = 0.0
        for v in vals:
            total += v
        return total


def _exp(x: float) -> float:
    """exp that saturates to +inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# two-piece coordinate functions used by the LowerBound landscape


def expquad_value(x: float, L0: float, L1: float) -> float:
    """Quadratic well of curvature L0 for |x| <= 1/L1, exponential outside."""
    b = 1.0 / L1
    if x >= b:
        return L0 * _exp(L1 * x - 1.0) / (L1 * L1)
    if x <= -b:
        return L0 * _exp(-L1 * x - 1.0) / (L1 * L1)
    return 0.5 * L0 * x * x + L0 / (2.0 * L1 * L1)


def expquad_grad(x: float, L0: float, L1: float) -> float:
    b = 1.0 / L1
    if x >= b:
        return L0 * _exp(L1 * x - 1.0) / L1
    if x <= -b:
        return -L0 * _exp(-L1 * x - 1.0) / L1
    return L0 * x


def linquad_value(y: float, eps: float) -> float:
    """Quadratic well of curvature eps for |y| <= 1, linear ramps outside."""
    if y >= 1.0:
        return eps * (y - 1.0) + 0.5 * eps
    if y <= -1.0:
        return -eps * (y + 1.0) + 0.5 * eps
    return 0.5 * eps * y * y


def linquad_grad(y: float, eps: float) -> float:
    if y >= 1.0:
        return eps
    if y <= -1.0:
        return -eps
    return eps * y


# ---------------------------------------------------------------------------


class FiniteSumObjective:
    """A finite sum of d-dimensional components with per-component access.

    Parameters dict is JSON-ready; ``known_*`` fields carry closed-form
    constants when the construction provides them (None otherwise).
    """

    __slots__ = (
        "kind",
        "n",
        "d",
        "parameters",
        "known_min",
        "known_D0_D1",
        "known_L0_L1",
        "_value_fn",
        "_grad_fn",
        "_full_grad_fn",
        "_smooth_fn",
        "_values_fn",
    )

    def __init__(
        self,
        kind: str,
        n: Size,
        d: Size,
        parameters: dict,
        value_fn: Callable[[int, Sequence[float]], float],
        grad_fn: Callable[[int, Sequence[float]], Vector],
        full_grad_fn: Optional[Callable[[Sequence[float]], Vector]] = None,
        smooth_fn: Optional[Callable[[Sequence[float]], float]] = None,
        values_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        known_min: Optional[float] = None,
        known_D0_D1: Optional[tuple[float, float]] = None,
        known_L0_L1: Optional[tuple[float, float]] = None,
    ) -> None:
        check(FiniteSumObjective.__init__, n=n, d=d)
        self.kind = kind
        self.n = n
        self.d = d
        self.parameters = parameters
        self.known_min = known_min
        self.known_D0_D1 = known_D0_D1
        self.known_L0_L1 = known_L0_L1
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._full_grad_fn = full_grad_fn
        self._smooth_fn = smooth_fn
        # row kernel: rows x d points -> rows x n component values, each
        # equal to value_fn's bit for bit
        self._values_fn = values_fn

    # -- evaluation, unchecked (see check_point) -----------------------------

    def component_value(self, j: int, w: Sequence[float]) -> float:
        return self._value_fn(j, w)

    def component_grad(self, j: int, w: Sequence[float]) -> Vector:
        return self._grad_fn(j, w)

    def value(self, w: Sequence[float]) -> float:
        v = self._value_fn
        return _sum([v(j, w) for j in range(self.n)]) / self.n

    def full_grad(self, w: Sequence[float]) -> Vector:
        if self._full_grad_fn is not None:
            return self._full_grad_fn(w)
        acc = [0.0] * self.d
        for j in range(self.n):
            g = self._grad_fn(j, w)
            for l in range(self.d):
                acc[l] += g[l]
        inv = 1.0 / self.n
        return [a * inv for a in acc]

    def mean_values(self, W: np.ndarray) -> np.ndarray:
        """The mean objective of each row of W (rows x d), equal to ``value``
        of the row; a block of rows at a time (VALUE_BLOCK_VALUES)."""
        n, kernel = self.n, self._values_fn
        rows = max(1, VALUE_BLOCK_VALUES // n)
        out = np.empty(len(W))
        for start in range(0, len(W), rows):
            block = W[start:start + rows]
            if kernel is None:
                vals = list(map(self.value, block.tolist()))
            elif n == 1:  # math.fsum of one value is that value, -0.0 made 0.0
                vals = kernel(block)[:, 0] + 0.0
            else:
                vals = np.array(list(map(_sum, kernel(block).tolist()))) / n
            out[start:start + len(block)] = vals
        return out

    def analytic_smoothness(self, w: Sequence[float]) -> Optional[float]:
        """Local Lipschitz bound for the full gradient at w, if known."""
        return None if self._smooth_fn is None else self._smooth_fn(w)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteSumObjective(kind={self.kind!r}, n={self.n}, d={self.d})"


def check_point(obj: FiniteSumObjective, w: Sequence[float]) -> list[float]:
    """w as a list of floats; ValueError unless it has the objective's
    dimension and only finite coordinates. The one check of a point, made
    where it enters: a run's start point, a probe's points, LemmaSuite's x0."""
    if len(w) != obj.d:
        raise ValueError(f"point has dim {len(w)}, objective has d={obj.d}")
    try:
        w = [float(v) for v in w]
    except OverflowError:  # an int beyond the float range
        raise ValueError("non-finite point") from None
    if not all(map(math.isfinite, w)):
        raise ValueError("non-finite point")
    return w


# ---------------------------------------------------------------------------
# builders


def zhang_counterexample(scale: float = 1.0) -> FiniteSumObjective:
    """Ten 1-d quadratics: f_0 = s(x-1)^2, f_j = -0.1 s (x - 10/9)^2 for j>=1.

    Mean objective: s * (x^2/10 - 1/90), full gradient 0.02 s x, minimizer 0.
    ``scale`` multiplies every component (scale = n recovers the unaveraged
    sum convention).
    """
    if not math.isfinite(scale) or scale == 0.0:
        raise ValueError("scale must be finite and nonzero")
    s = float(scale)
    c = 10.0 / 9.0

    def value_fn(j: int, w: Sequence[float]) -> float:
        x = w[0]
        if j == 0:
            t = x - 1.0
            return s * (t * t)
        t = x - c
        return -0.1 * s * (t * t)

    def grad_fn(j: int, w: Sequence[float]) -> Vector:
        x = w[0]
        if j == 0:
            return [2.0 * s * (x - 1.0)]
        return [-0.2 * s * (x - c)]

    def values_fn(W: np.ndarray) -> np.ndarray:
        # value_fn's expressions, one column per component
        x = W[:, 0]
        out = np.empty((len(x), 10))
        with np.errstate(over="ignore", invalid="ignore"):
            t = x - 1.0
            out[:, 0] = s * (t * t)
            t = x - c
            out[:, 1:] = ((-0.1 * s) * (t * t))[:, None]
        return out

    def full_grad_fn(w: Sequence[float]) -> Vector:
        return [0.02 * s * w[0]]

    def smooth_fn(w: Sequence[float]) -> float:
        return abs(0.02 * s)

    return FiniteSumObjective(
        kind=KIND_ZHANG,
        n=10,
        d=1,
        parameters={"scale": s},
        value_fn=value_fn,
        grad_fn=grad_fn,
        full_grad_fn=full_grad_fn,
        smooth_fn=smooth_fn,
        values_fn=values_fn,
        known_min=-s / 90.0 if s > 0 else None,
        known_D0_D1=None,
        known_L0_L1=(2.0 * abs(s), 0.0),
    )


def lowerbound_objective(L0: Positive, L1: Positive, epsilon: Positive) -> FiniteSumObjective:
    """Separable 2-d landscape expquad(x; L0, L1) + linquad(y; eps), n = 1.

    Minimum L0 / (2 L1^2) at the origin. As an n = 1 finite sum the noise
    envelope is exact: D0 = 0, D1 = 1. The pairwise smoothness claim uses
    max(L0, epsilon) for the additive constant because the y-branch has
    curvature epsilon where the gradient vanishes.
    """
    check(lowerbound_objective, L0=L0, L1=L1, epsilon=epsilon)

    def value_fn(j: int, w: Sequence[float]) -> float:
        return expquad_value(w[0], L0, L1) + linquad_value(w[1], epsilon)

    def grad_fn(j: int, w: Sequence[float]) -> Vector:
        return [expquad_grad(w[0], L0, L1), linquad_grad(w[1], epsilon)]

    def full_grad_fn(w: Sequence[float]) -> Vector:
        return grad_fn(0, w)

    def values_fn(W: np.ndarray) -> np.ndarray:
        # value_fn's expressions in its operation order, branch by mask; the
        # exponential rows go through _exp one by one, since np.exp is not
        # correctly rounded and differs from math.exp on some inputs
        x, y = W[:, 0], W[:, 1]
        b = 1.0 / L1
        with np.errstate(over="ignore"):
            fx = 0.5 * L0 * x * x + L0 / (2.0 * L1 * L1)
            for ramp, arg in ((x >= b, L1 * x - 1.0), (x <= -b, -L1 * x - 1.0)):
                fx[ramp] = L0 * np.array(list(map(_exp, arg[ramp].tolist()))) / (L1 * L1)
            fy = np.where(
                y >= 1.0, epsilon * (y - 1.0) + 0.5 * epsilon,
                np.where(y <= -1.0, -epsilon * (y + 1.0) + 0.5 * epsilon, 0.5 * epsilon * y * y),
            )
            return (fx + fy)[:, None]

    def smooth_fn(w: Sequence[float]) -> float:
        x, y = w[0], w[1]
        b = 1.0 / L1
        hx = L0 if abs(x) <= b else L1 * abs(expquad_grad(x, L0, L1))
        hy = epsilon if abs(y) <= 1.0 else 0.0
        return max(hx, hy)

    return FiniteSumObjective(
        kind=KIND_LOWERBOUND,
        n=1,
        d=2,
        parameters={"L0": float(L0), "L1": float(L1), "epsilon": float(epsilon)},
        value_fn=value_fn,
        grad_fn=grad_fn,
        full_grad_fn=full_grad_fn,
        smooth_fn=smooth_fn,
        values_fn=values_fn,
        known_min=L0 / (2.0 * L1 * L1),
        known_D0_D1=(0.0, 1.0),
        known_L0_L1=(max(L0, epsilon), L1),
    )


def quadratic_sum(
    curvatures: list[Positive],
    centers: Sequence[Sequence[float]],
    known_D0_D1: Optional[tuple[float, float]] = None,
) -> FiniteSumObjective:
    """Components (a_j / 2) |w - c_j|^2 with a_j > 0."""
    check(quadratic_sum, curvatures=curvatures)
    n = len(curvatures)
    if n == 0 or len(centers) != n:
        raise ValueError("need matching, nonempty curvature and center lists")
    d = len(centers[0])
    if any(len(c) != d for c in centers):
        raise ValueError("centers must share one dimension")
    a = [float(v) for v in curvatures]
    cs = [[float(x) for x in c] for c in centers]

    abar = math.fsum(a) / n
    # stationary point of the mean: weighted center
    wstar = [math.fsum(a[j] * cs[j][l] for j in range(n)) / (n * abar) for l in range(d)]
    # squares as products: `t ** 2` raises OverflowError past about 1.3e154,
    # `t * t` rounds to inf
    fmin = math.fsum(
        0.5 * a[j] * math.fsum(t * t for t in (wstar[l] - cs[j][l] for l in range(d)))
        for j in range(n)
    ) / n

    def value_fn(j: int, w: Sequence[float]) -> float:
        return 0.5 * a[j] * math.fsum(t * t for t in (w[l] - cs[j][l] for l in range(d)))

    def grad_fn(j: int, w: Sequence[float]) -> Vector:
        return [a[j] * (w[l] - cs[j][l]) for l in range(d)]

    def full_grad_fn(w: Sequence[float]) -> Vector:
        return [abar * (w[l] - wstar[l]) for l in range(d)]

    def smooth_fn(w: Sequence[float]) -> float:
        return abs(abar)

    return FiniteSumObjective(
        kind=KIND_QUADRATIC,
        n=n,
        d=d,
        parameters={"curvatures": a, "centers": cs},
        value_fn=value_fn,
        grad_fn=grad_fn,
        full_grad_fn=full_grad_fn,
        smooth_fn=smooth_fn,
        known_min=fmin,
        known_D0_D1=known_D0_D1,
        known_L0_L1=(max(a), 0.0),
    )


def custom_objective(
    n: int,
    d: int,
    value_fn: Callable[[int, Sequence[float]], float],
    grad_fn: Callable[[int, Sequence[float]], Vector],
    parameters: Optional[dict] = None,
    smooth_fn: Optional[Callable[[Sequence[float]], float]] = None,
    known_min: Optional[float] = None,
    known_D0_D1: Optional[tuple[float, float]] = None,
    known_L0_L1: Optional[tuple[float, float]] = None,
) -> FiniteSumObjective:
    return FiniteSumObjective(
        kind=KIND_CUSTOM,
        n=n,
        d=d,
        parameters=parameters or {},
        value_fn=value_fn,
        grad_fn=grad_fn,
        smooth_fn=smooth_fn,
        known_min=known_min,
        known_D0_D1=known_D0_D1,
        known_L0_L1=known_L0_L1,
    )


def make_lowerbound(L0: float, L1: float, T: int, M: float, f_bar: float):
    """Build the divergence/slow-progress landscape sized for a step budget.

    Returns (objective, w0, construction) where construction carries epsilon,
    the start point (x0, y0), the step-size threshold eta_star and the
    slow-progress horizon. Raises ConstraintViolation if (L0, L1, T, M,
    f_bar) violate the construction's admissibility conditions.
    """
    from .theory import theorem2_construction

    con = theorem2_construction(L0=L0, L1=L1, T=T, M=M, f_bar=f_bar)
    obj = lowerbound_objective(L0=L0, L1=L1, epsilon=con.epsilon)
    w0 = [con.x0, con.y0]
    return obj, w0, con


# ---------------------------------------------------------------------------
# serialization


def to_spec(obj: FiniteSumObjective) -> dict:
    """JSON-ready description {kind, n, d, parameters}."""
    if obj.kind == KIND_CUSTOM:
        raise ValueError("custom objectives are not serializable")
    return {"kind": obj.kind, "n": obj.n, "d": obj.d, "parameters": obj.parameters}


_SPEC = make_dataclass("Spec", [
    ("kind", str), ("n", Optional[int], field(default=None)),
    ("d", Optional[int], field(default=None)), ("parameters", dict, field(default_factory=dict)),
])
_LOADABLE = {  # kind -> (constructor, its typed parameters)
    kind: (build, make_dataclass(kind, params))
    for kind, build, params in (
        (KIND_ZHANG, zhang_counterexample, [("scale", float, field(default=1.0))]),
        (KIND_LOWERBOUND, lowerbound_objective, [("L0", Positive), ("L1", Positive), ("epsilon", Positive)]),
        (KIND_QUADRATIC, quadratic_sum, [("curvatures", list[Positive]), ("centers", list[list[float]])]),
    )
}


def from_spec(spec: dict) -> FiniteSumObjective:
    """The objective a spec describes. An unknown key or kind, a missing or
    mistyped parameter, and an ``n`` or ``d`` that the kind contradicts
    raise ValueError."""
    s = parse(_SPEC, spec, "objective")
    if s.kind not in _LOADABLE:
        raise ValueError(f"unknown or non-loadable objective kind: {s.kind!r}")
    build, params = _LOADABLE[s.kind]
    obj = build(**vars(parse(params, s.parameters, "objective.parameters")))
    for name in ("n", "d"):
        given = getattr(s, name)
        if given is not None and given != getattr(obj, name):
            raise ValueError(f"spec {name}={given} inconsistent with kind")
    return obj
