"""Finite-sum test landscapes.

Each objective is f(w) = (1/n) * sum_j f_j(w), one frozen
``FiniteSumObjective`` record. Component values and gradients are exposed raw
(unaveraged), as the builder's ``value_fn(j, w)`` and ``grad_fn(j, w)``,
because reshuffled optimizers consume them one at a time; ``value`` and
``full_grad`` average. A one-dimensional objective whose component
gradients are affine may also carry ``affine1 = (coefs, centers)``, with
``grad_fn(j, [x])[0]`` written as ``coefs[j] * (x - centers[j])``: Adam
runs such an objective in one loop with that expression inline
(``optimizers.adam_run``). ``ZhangCounterexample`` and a d = 1
``QuadraticSum`` carry one.

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
(libm ``pow`` is not correctly rounded, a product is one IEEE operation);
``LowerBound``'s, which keeps ``math.exp`` on its exponential rows
(``np.exp`` is not correctly rounded either); and ``QuadraticSum``'s, which
sums each squared distance with the same row sum. ``Custom`` evaluates row
by row with the scalar code.

The row sum, ``_row_sums``, returns ``math.fsum`` of each row of a block
bit for bit without a Python float per row. Two cascades of Knuth's
TwoSum carry each row's exact sum (Ogita, Rump & Oishi 2005, "Accurate sum
and dot product"); one rounding of that sum gives ``fsum``'s result where
the carry is exact or its error bound keeps the rounding certain. The few
rows it cannot certify, and rows whose absolute sum lies outside
(2**-900, 2**1000), non-finite ones included, go through the scalar
``_sum`` one by one.

``grad_norms(W)`` is its counterpart for Adam's snapshot ``grad_norm`` column:
each row's ``math.hypot(*full_grad(row))`` bit for bit, which at d = 1 is
``np.abs`` of the builder's full-gradient row kernel ``full_grads_fn`` where
it has one (``np.hypot`` differs from ``math.hypot`` on some pairs).

Built-in kinds:

* ``ZhangCounterexample`` -- one steep quadratic pulling toward x = 1 plus
  nine shallow concave quadratics centered at x = 10/9; the mean is a gentle
  convex quadratic with minimizer x = 0. Adaptive methods with short
  second-moment memory stall at a gradient-size floor on it.
* ``LowerBound`` -- separable 2-d landscape f1(x) + f2(y): f1 is quadratic in
  a central band and exponential outside, f2 is quadratic in a central band
  and linear outside. Gradient-descent step sizes above a computable
  threshold blow up double-exponentially in x; below it, progress is held
  hostage by the flat linear y-branch. Its ``grad_fn`` is one closure that
  writes ``expquad_grad``'s and ``linquad_grad``'s expressions inline, in
  their operation order, and its ``full_grad_fn`` is that closure at
  component 0 (n = 1): one Python frame per gradient on GD's hot path. The
  coordinate functions stay as its reference, bit for bit, and
  ``smooth_fn`` reads ``expquad_grad``.
* ``QuadraticSum`` -- components (a_j / 2) * |w - c_j|^2.
* ``Custom`` -- caller-supplied callbacks, not serializable:
  ``FiniteSumObjective(KIND_CUSTOM, n, d, {}, value_fn, grad_fn, ...)``.

A spec ``{kind, n, d, parameters}`` names a key of ``_LOADABLE``, whose
builder's signature declares the parameters: ``from_spec`` checks them
against it and calls it (``schema.parse``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal, Optional, Sequence

import numpy as np

from .schema import Positive, Size, SquarePositive, check, parse

Vector = list[float]

# mean_values evaluates about this many component values times coordinates
# at a time, in blocks of VALUE_BLOCK_VALUES // (n * d) rows (at least one):
# 2048 rows of the counterexample's 10 components, and rows x n x d is the
# widest array QuadraticSum's row kernel makes. A block is a few NumPy
# arrays, not Python floats for math.fsum (of which blocks of 2560 raised
# Fig3's peak RSS by about 1 MB): this size raises it by about 0.3 MB. It
# spreads NumPy's per-call cost, about a hundred calls per block in
# _row_sums at n = 10, over enough rows: the counterexample's mean_values
# took 0.3 us per row in blocks of 2048 rows and 0.8 us in blocks of 256.
VALUE_BLOCK_VALUES = 20480

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


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: s = fl(a + b) and err with s + err = a + b exactly,
    wherever a + b does not overflow."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _row_sums(V: np.ndarray) -> np.ndarray:
    """``_sum`` of each row of V (rows x n), bit for bit.

    A TwoSum cascade over the columns leaves s plus the errors q equal to a
    row's exact sum; a second one over the q leaves e plus f, so the row is
    s + e + sum(f) exactly. Where f is all zero, fl(s + e) rounds the exact
    sum to nearest, ties to even, as ``fsum`` does. Otherwise r, t =
    TwoSum(s, e); fa = fl(sum |f|) is within n * 2**-53 of sum |f|
    relative, so bound = fa * (1 + n * 2**-50) >= |sum(f)|, and r is
    ``fsum``'s result where bound keeps r + t + sum(f) strictly within half
    a gap of r on either side. The other rows go through ``_sum`` one by
    one: those the bound leaves uncertain, and those whose |row|_1 is not in
    (2**-900, 2**1000), the non-finite ones among them: inside that range
    no partial sum overflows, and an all-zero row is outside it. A single
    column is its own sum plus 0.0, which turns -0.0 into ``fsum``'s 0.0;
    a certified r is never -0.0, as only -0.0 + -0.0 rounds to -0.0.
    """
    n = V.shape[1]
    if n == 1:
        return V[:, 0] + 0.0
    with np.errstate(all="ignore"):
        s, q = V[:, 0], []
        for k in range(1, n):
            s, err = _two_sum(s, V[:, k])
            q.append(err)
        e, fa = q[0], 0.0
        for err in q[1:]:
            e, f = _two_sum(e, err)
            fa = fa + np.abs(f)
        r, t = _two_sum(s, e)
        bound = fa * (1.0 + n * 2.0 ** -50)
        up = np.nextafter(r, np.inf) - r
        dn = r - np.nextafter(r, -np.inf)
        l1 = np.abs(V).sum(axis=1)
        certified = (l1 > 2.0 ** -900) & (l1 < 2.0 ** 1000) & (
            (fa == 0.0) | ((t + bound < up / 2) & (bound - t < dn / 2)))
    for i in np.flatnonzero(~certified).tolist():
        r[i] = _sum(V[i].tolist())
    return r


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


@dataclass(frozen=True, slots=True, eq=False)
class FiniteSumObjective:
    """A finite sum of d-dimensional components with per-component access.

    Parameters dict is JSON-ready; ``known_*`` fields carry closed-form
    constants when the construction provides them (None otherwise). The
    callables are the builder's: ``value_fn(j, w)`` and ``grad_fn(j, w)``
    for component j, the optional ``full_grad_fn(w)``, ``smooth_fn(w)`` (a
    local Lipschitz bound for the full gradient at w), ``values_fn(W)``
    (row kernel: rows x d points -> rows x n component values, each equal
    to value_fn's bit for bit), ``full_grads_fn(W)`` (row kernel: rows x d
    points -> rows x d full gradients, each equal to full_grad_fn's bit for
    bit) and, keyword only and for d = 1 only,
    ``affine1 = (coefs, centers)``, n floats each, with which ``grad_fn(j,
    [x])[0]`` is ``coefs[j] * (x - centers[j])`` bit for bit.
    """

    kind: str
    n: Size
    d: Size
    parameters: dict
    value_fn: Callable[[int, Sequence[float]], float]
    grad_fn: Callable[[int, Sequence[float]], Vector]
    full_grad_fn: Optional[Callable[[Sequence[float]], Vector]] = None
    smooth_fn: Optional[Callable[[Sequence[float]], float]] = None
    values_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    full_grads_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_min: Optional[float] = None
    known_D0_D1: Optional[tuple[float, float]] = None
    known_L0_L1: Optional[tuple[float, float]] = None
    affine1: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        check(FiniteSumObjective, n=self.n, d=self.d)
        if self.affine1 is not None and self.d != 1:
            raise ValueError(f"affine1 needs d=1, objective has d={self.d}")

    # -- evaluation, unchecked (see check_point) -----------------------------

    def component_grad(self, j: int, w: Sequence[float]) -> Vector:
        # kept as the benchmark's traced leaf for the gradients taken
        # outside the Adam loop (adam_init, noise_pairs)
        return self.grad_fn(j, w)

    def value(self, w: Sequence[float]) -> float:
        v = self.value_fn
        return _sum([v(j, w) for j in range(self.n)]) / self.n

    def full_grad(self, w: Sequence[float]) -> Vector:
        if self.full_grad_fn is not None:
            return self.full_grad_fn(w)
        acc = [0.0] * self.d
        for j in range(self.n):
            g = self.grad_fn(j, w)
            for l in range(self.d):
                acc[l] += g[l]
        inv = 1.0 / self.n
        return [a * inv for a in acc]

    def mean_values(self, W: np.ndarray) -> np.ndarray:
        """The mean objective of each row of W (rows x d), equal to ``value``
        of the row; a block of rows at a time (VALUE_BLOCK_VALUES)."""
        n, kernel = self.n, self.values_fn
        rows = max(1, VALUE_BLOCK_VALUES // (n * self.d))
        out = np.empty(len(W))
        for start in range(0, len(W), rows):
            block = W[start:start + rows]
            if kernel is None:
                out[start:start + len(block)] = list(map(self.value, block.tolist()))
            else:
                out[start:start + len(block)] = _row_sums(kernel(block)) / n
        return out

    def grad_norms(self, W: np.ndarray) -> np.ndarray:
        """``math.hypot(*full_grad(row))`` of each row of W (rows x d)."""
        if self.d == 1 and self.full_grads_fn is not None:
            with np.errstate(over="ignore"):
                return np.abs(self.full_grads_fn(W)[:, 0])
        return np.array([math.hypot(*self.full_grad(w)) for w in W.tolist()], dtype=np.float64)


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
        raise ValueError(f"scale: expected a finite nonzero number, got {scale!r}")
    s = float(scale)
    c = 10.0 / 9.0

    def value_fn(j: int, w: Sequence[float]) -> float:
        x = w[0]
        if j == 0:
            t = x - 1.0
            return s * (t * t)
        t = x - c
        return -0.1 * s * (t * t)

    # gradient of component j: coef_j * (x - center_j), so 2 s (x - 1) is
    # (2.0 * s) * (x - 1.0)
    coefs, centers = (2.0 * s,) + (-0.2 * s,) * 9, (1.0,) + (c,) * 9

    def grad_fn(j: int, w: Sequence[float]) -> Vector:
        return [coefs[j] * (w[0] - centers[j])]

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

    def full_grads_fn(W: np.ndarray) -> np.ndarray:
        return (0.02 * s) * W

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
        full_grads_fn=full_grads_fn,
        affine1=(coefs, centers),
        known_min=-s / 90.0 if s > 0 else None,
        known_L0_L1=(2.0 * abs(s), 0.0),
    )


def lowerbound_objective(L0: Positive, L1: SquarePositive, epsilon: Positive) -> FiniteSumObjective:
    """Separable 2-d landscape expquad(x; L0, L1) + linquad(y; eps), n = 1.

    Minimum L0 / (2 L1^2) at the origin. As an n = 1 finite sum the noise
    envelope is exact: D0 = 0, D1 = 1. The pairwise smoothness claim uses
    max(L0, epsilon) for the additive constant because the y-branch has
    curvature epsilon where the gradient vanishes.
    """
    check(lowerbound_objective, L0=L0, L1=L1, epsilon=epsilon)

    def value_fn(j: int, w: Sequence[float]) -> float:
        return expquad_value(w[0], L0, L1) + linquad_value(w[1], epsilon)

    b = 1.0 / L1

    def grad_fn(j: int, w: Sequence[float]) -> Vector:
        # [expquad_grad(x, L0, L1), linquad_grad(y, epsilon)], their
        # expressions inline in their operation order: one call per gradient
        x, y = w
        if x >= b:
            gx = L0 * _exp(L1 * x - 1.0) / L1
        elif x <= -b:
            gx = -L0 * _exp(-L1 * x - 1.0) / L1
        else:
            gx = L0 * x
        if y >= 1.0:
            return [gx, epsilon]
        if y <= -1.0:
            return [gx, -epsilon]
        return [gx, epsilon * y]

    # n = 1: the full gradient is component 0's, with no frame of its own
    full_grad_fn = functools.partial(grad_fn, 0)

    def values_fn(W: np.ndarray) -> np.ndarray:
        # value_fn's expressions in its operation order, branch by mask; the
        # exponential rows go through _exp one by one, since np.exp is not
        # correctly rounded and differs from math.exp on some inputs
        x, y = W[:, 0], W[:, 1]
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


def _fsum(key: str, terms: Iterable[float]) -> float:
    """math.fsum of terms built from the parameter ``key``; its OverflowError
    (a sum past the float range) or ValueError (inf + -inf) names the key."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"{key}: a sum built from these values leaves the float range ({exc})") from None


def quadratic_sum(curvatures: list[Positive], centers: list[list[float]]) -> FiniteSumObjective:
    """Components (a_j / 2) |w - c_j|^2 with a_j > 0."""
    check(quadratic_sum, curvatures=curvatures)
    n = len(curvatures)
    if n == 0:
        raise ValueError("curvatures: expected a nonempty list, got []")
    if len(centers) != n:
        raise ValueError(f"centers: expected one per curvature ({n}), got {len(centers)}")
    d = len(centers[0])
    if d == 0 or any(len(c) != d for c in centers):
        raise ValueError(f"centers: expected points of one dimension d >= 1, got dimensions {[len(c) for c in centers]}")
    a = [float(v) for v in curvatures]
    cs = [[float(x) for x in c] for c in centers]

    abar = _fsum("curvatures", a) / n
    # stationary point of the mean: weighted center
    wstar = [_fsum("centers", (a[j] * cs[j][l] for j in range(n))) / (n * abar) for l in range(d)]
    # squares as products: `t ** 2` raises OverflowError past about 1.3e154,
    # `t * t` rounds to inf
    fmin = _fsum("centers", (
        0.5 * a[j] * math.fsum(t * t for t in (wstar[l] - cs[j][l] for l in range(d)))
        for j in range(n)
    )) / n

    def value_fn(j: int, w: Sequence[float]) -> float:
        return 0.5 * a[j] * _sum([t * t for t in (w[l] - cs[j][l] for l in range(d))])

    def grad_fn(j: int, w: Sequence[float]) -> Vector:
        return [a[j] * (w[l] - cs[j][l]) for l in range(d)]

    # grad_fn's one coordinate: a[j] * (x - cs[j][0])
    affine1 = (tuple(a), tuple(c[0] for c in cs)) if d == 1 else None
    half, C = 0.5 * np.array(a), np.array(cs)

    def values_fn(W: np.ndarray) -> np.ndarray:
        # value_fn's expressions: component j's squared distance as products,
        # summed by _sum's bits, then times 0.5 * a[j]
        with np.errstate(over="ignore", invalid="ignore"):
            T = W[:, None, :] - C
            return half * _row_sums((T * T).reshape(-1, d)).reshape(len(W), n)

    def full_grad_fn(w: Sequence[float]) -> Vector:
        return [abar * (w[l] - wstar[l]) for l in range(d)]

    def full_grads_fn(W: np.ndarray) -> np.ndarray:
        return abar * (W - np.array(wstar))

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
        values_fn=values_fn,
        full_grads_fn=full_grads_fn,
        affine1=affine1,
        known_min=fmin,
        known_L0_L1=(max(a), 0.0),
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


_LOADABLE = {KIND_ZHANG: zhang_counterexample, KIND_LOWERBOUND: lowerbound_objective, KIND_QUADRATIC: quadratic_sum}


@dataclass(frozen=True)
class _Spec:
    kind: Literal[tuple(_LOADABLE)]
    n: Optional[int] = None
    d: Optional[int] = None
    parameters: dict = field(default_factory=dict)


def from_spec(spec: dict) -> FiniteSumObjective:
    """The objective a spec describes: its kind's builder called with its
    parameters. An unknown key or kind, a missing or mistyped parameter, a
    value the builder refuses and an ``n`` or ``d`` that the kind
    contradicts raise ValueError naming the key."""
    s = parse(_Spec, spec, "objective")
    obj = parse(_LOADABLE[s.kind], s.parameters, "objective.parameters")
    for name in ("n", "d"):
        given, built = getattr(s, name), getattr(obj, name)
        if given is not None and given != built:
            raise ValueError(f"objective.{name}: expected {built} (this {s.kind}'s {name}), got {given}")
    return obj
