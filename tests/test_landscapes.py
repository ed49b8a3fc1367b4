import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from adamlab import landscapes
from adamlab.landscapes import (
    _LOADABLE,
    KIND_CUSTOM,
    KIND_LOWERBOUND,
    KIND_QUADRATIC,
    KIND_ZHANG,
    VALUE_BLOCK_VALUES,
    FiniteSumObjective,
    check_point,
    expquad_grad,
    expquad_value,
    from_spec,
    linquad_grad,
    linquad_value,
    lowerbound_objective,
    make_lowerbound,
    quadratic_sum,
    to_spec,
    zhang_counterexample,
)
from adamlab.optimizers import AdamParams, adam_run, gd_run
from adamlab.probes import affine_noise_fit, local_smoothness


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


# ---------------------------------------------------------------- 1d pieces


def test_expquad_is_offset_quadratic_inside_core():
    L0, L1 = 2.0, 0.5
    off = L0 / (2.0 * L1 * L1)
    for x in (-1.5, -0.3, 0.0, 0.7, 1.9):
        assert abs(x) <= 1.0 / L1
        assert expquad_value(x, L0, L1) == pytest.approx(0.5 * L0 * x * x + off, rel=1e-15)
        assert expquad_grad(x, L0, L1) == pytest.approx(L0 * x, rel=1e-15)


def test_expquad_continuous_at_branch_points():
    L0, L1 = 1.0, 1.0
    b = 1.0 / L1
    eps = 1e-9
    for s in (+1.0, -1.0):
        v_in = expquad_value(s * (b - eps), L0, L1)
        v_out = expquad_value(s * (b + eps), L0, L1)
        assert abs(v_in - v_out) < 1e-8
        g_in = expquad_grad(s * (b - eps), L0, L1)
        g_out = expquad_grad(s * (b + eps), L0, L1)
        assert abs(g_in - g_out) < 1e-8
    # exact seam values: quadratic-plus-offset meets the exponential branch
    assert expquad_value(b, L0, L1) == pytest.approx(L0 / (L1 * L1), rel=1e-12)
    assert expquad_grad(b, L0, L1) == pytest.approx(L0 / L1, rel=1e-12)


def test_expquad_gradient_is_derivative_of_value():
    L0, L1 = 3.0, 0.8
    for x in (-4.0, -1.25, -0.2, 0.0, 0.9, 1.25, 5.5):
        num = central_diff(lambda t: expquad_value(t, L0, L1), x)
        assert expquad_grad(x, L0, L1) == pytest.approx(num, rel=1e-6, abs=1e-8)


def test_expquad_grows_exponentially_outside_core():
    g5 = expquad_grad(5.0, 1.0, 1.0)
    assert g5 == pytest.approx(math.exp(4.0), rel=1e-12)
    assert expquad_value(5.0, 1.0, 1.0) == pytest.approx(math.exp(4.0), rel=1e-12)


def test_expquad_overflow_clamps_to_inf_not_error():
    v = expquad_value(1e6, 1.0, 1.0)
    g = expquad_grad(1e6, 1.0, 1.0)
    assert math.isinf(v) and v > 0
    assert math.isinf(g) and g > 0


def test_linquad_continuous_at_branch_points():
    eps_c = 0.25
    assert linquad_value(1.0, eps_c) == pytest.approx(eps_c / 2, rel=1e-12)
    assert linquad_grad(1.0, eps_c) == pytest.approx(eps_c, rel=1e-12)
    h = 1e-9
    for s in (+1.0, -1.0):
        assert abs(linquad_value(s * (1 + h), eps_c) - linquad_value(s * (1 - h), eps_c)) < 1e-8
        assert abs(linquad_grad(s * (1 + h), eps_c) - linquad_grad(s * (1 - h), eps_c)) < 1e-8


def test_linquad_gradient_is_derivative_of_value():
    eps_c = 0.7
    for y in (-30.0, -1.5, -0.4, 0.0, 0.6, 2.0, 40.0):
        num = central_diff(lambda t: linquad_value(t, eps_c), y)
        assert linquad_grad(y, eps_c) == pytest.approx(num, rel=1e-6, abs=1e-8)
    assert linquad_grad(10.0, eps_c) == eps_c
    assert linquad_grad(-10.0, eps_c) == -eps_c


# -------------------------------------------------------- shuffled quadratic


def test_counterexample_component_anchors():
    obj = zhang_counterexample(1.0)
    assert obj.n == 10 and obj.d == 1
    assert obj.value_fn(0, [-2.0]) == pytest.approx(9.0, rel=1e-15)
    assert obj.component_grad(0, [-2.0])[0] == pytest.approx(-6.0, rel=1e-15)
    for j in range(1, 10):
        assert obj.component_grad(j, [0.0])[0] == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert obj.value([0.0]) == pytest.approx(-1.0 / 90.0, rel=1e-12)
    assert obj.full_grad([0.0])[0] == pytest.approx(0.0, abs=1e-15)


def test_counterexample_mean_is_rescaled_quadratic():
    s = 3.0
    obj = zhang_counterexample(s)
    for x in (-2.0, -0.5, 0.0, 1.0, 4.0):
        w = [x]
        mean = math.fsum(obj.value_fn(j, w) for j in range(10)) / 10.0
        assert obj.value(w) == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert obj.value(w) == pytest.approx(s * (0.01 * x * x - 1.0 / 90.0), rel=1e-10, abs=1e-12)
        assert obj.full_grad(w)[0] == pytest.approx(0.02 * s * x, rel=1e-12, abs=1e-15)
    assert obj.known_min == pytest.approx(-s / 90.0, rel=1e-12)
    assert obj.known_L0_L1 == (2.0 * s, 0.0)


def test_counterexample_full_grad_matches_component_average():
    obj = zhang_counterexample(2.0)
    for x in (-1.0, 0.3, 7.0):
        avg = math.fsum(obj.component_grad(j, [x])[0] for j in range(10)) / 10.0
        assert obj.full_grad([x])[0] == pytest.approx(avg, rel=1e-12, abs=1e-15)


def _bits(values):
    # the int64 view tells -0.0 from 0.0 and keeps NaN payloads apart
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(x=finite, scale=finite.filter(lambda s: s != 0.0))
@example(x=-0.0, scale=1.0)
@example(x=5e-324, scale=-5e-324)
@example(x=1e300, scale=1e300)
@example(x=-1e300, scale=-1e-300)
@example(x=1e300, scale=5e-324)  # -0.1 * s underflows to -0.0, times inf: NaN
@example(x=-10.0, scale=3.0)  # (-0.1 * s) * (t * t) != -0.1 * (s * t * t)
@settings(max_examples=300, deadline=None)
def test_counterexample_kernel_matches_value_fn_bit_for_bit(x, scale):
    obj = zhang_counterexample(scale)
    # the kernel silences its own overflow to inf and inf * 0 = NaN
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        row = obj.values_fn(np.array([[x]]))
    assert row.shape == (1, obj.n)
    assert _bits(row[0]) == _bits([obj.value_fn(j, [x]) for j in range(obj.n)])


@st.composite
def one_dimensional_objectives(draw):
    """The counterexample at either sign of its scale, or a d = 1
    QuadraticSum; coefficients large enough that a gradient at |x| up to
    1e200 overflows. The QuadraticSum's curvature-center products stay
    finite, which its builder's weighted center needs; a draw its builder
    still refuses (a sum it builds, such as the minimum value, leaves the
    float range) is rejected."""
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        return zhang_counterexample(sign * draw(st.floats(1e-300, 1e300)))
    n = draw(st.integers(1, 5))
    curvatures = draw(st.lists(st.floats(1e-300, 1e150), min_size=n, max_size=n))
    center = st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=1)
    centers = draw(st.lists(center, min_size=n, max_size=n))
    try:
        return quadratic_sum(curvatures, centers)
    except ValueError as e:
        if "leaves the float range" not in str(e):
            raise
        reject()


@given(one_dimensional_objectives(), st.floats(-1e200, 1e200))
@example(zhang_counterexample(1e200), 1e200)  # 2e200 * (x - 1.0) is inf
@example(zhang_counterexample(-1e200), -1e200)
@example(quadratic_sum([1e300], [[-1e200]]), 1e200)
@example(quadratic_sum([1e150, 1e150], [[1e78], [-1e78]]), 1e200)
@example(zhang_counterexample(5e-324), -0.0)
@settings(max_examples=300, deadline=None)
def test_affine1_pair_is_grad_fn_bit_for_bit(obj, x):
    coefs, centers = obj.affine1
    for j in range(obj.n):
        assert repr(coefs[j] * (x - centers[j])) == repr(obj.grad_fn(j, [x])[0])


def test_affine1_pair_only_on_one_dimension():
    coefs, centers = zhang_counterexample(1e200).affine1
    assert coefs[0] * (1e200 - centers[0]) == math.inf
    assert quadratic_sum([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]]).affine1 is None
    assert lowerbound_objective(1.0, 1.0, 0.5).affine1 is None
    with pytest.raises(ValueError, match="affine1 needs d=1"):
        FiniteSumObjective(
            KIND_CUSTOM, 1, 2, {},
            value_fn=lambda j, w: 0.0, grad_fn=lambda j, w: [0.0, 0.0], affine1=((1.0,), (0.0,)),
        )


def test_counterexample_squares_by_multiplying():
    # libm pow rounds this square differently from the one IEEE product
    x = -0.8704829527801667
    t = x - 1.0
    assert t ** 2 != t * t
    assert _bits([zhang_counterexample(1.0).value_fn(0, [x])]) == _bits([t * t])


def _custom():
    return FiniteSumObjective(
        KIND_CUSTOM, 3, 2, {},
        value_fn=lambda j, w: (j + 1) * w[0] * w[1] - math.sin(w[1]) / (j + 2),
        grad_fn=lambda j, w: [(j + 1) * w[1], (j + 1) * w[0] - math.cos(w[1]) / (j + 2)],
    )


# rows of each objective's points: uniform, in the exponential x-branch for
# LowerBound (|x| > 1 / L1)
MEAN_VALUE_CASES = {
    "Zhang": (lambda: zhang_counterexample(2.5), [(-30.0, 30.0)]),
    "QuadraticSum": (
        lambda: quadratic_sum(
            [1.0, 3.0, 0.5, 2.0],
            [[1.0, -2.0, 0.5], [0.0, 4.0, -1.0], [-3.0, 1.5, 2.0], [0.3, 0.3, 0.3]],
        ),
        [(-10.0, 10.0)] * 3,
    ),
    "LowerBound": (lambda: lowerbound_objective(1.0, 0.5, 0.25), [(2.5, 40.0), (-5.0, 5.0)]),
    "Custom": (_custom, [(-4.0, 4.0)] * 2),
}


def _check_mean_values(kind, rows):
    build, box = MEAN_VALUE_CASES[kind]
    obj = build()
    rng = np.random.default_rng(rows)
    lo, hi = np.array(box).T
    W = rng.uniform(lo, hi, size=(rows, obj.d))
    if kind == "LowerBound":
        W[::2, 0] *= -1.0  # both exponential arms
    got = obj.mean_values(W)
    assert got.shape == (rows,) and got.dtype == np.float64
    assert _bits(got) == _bits([obj.value(w) for w in W.tolist()])


# small row counts, inside one block; the next test takes the block edges
@pytest.mark.parametrize("kind", sorted(MEAN_VALUE_CASES))
@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 129])
def test_mean_values_equal_value_of_each_row(kind, rows):
    _check_mean_values(kind, rows)


@pytest.mark.parametrize("kind", sorted(MEAN_VALUE_CASES))
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_mean_values_equal_value_around_each_block_edge(kind, blocks, extra):
    # rows around the edges of this objective's own blocks
    obj = MEAN_VALUE_CASES[kind][0]()
    _check_mean_values(kind, blocks * max(1, VALUE_BLOCK_VALUES // (obj.n * obj.d)) + extra)


@pytest.mark.parametrize(
    "build, w, want",
    [
        # component 0 overflows to +inf and the nine concave ones to -inf
        (zhang_counterexample, [1e200], math.nan),
        # two finite components of about 1.1e308 whose sum overflows
        (lambda: quadratic_sum([1e200, 1e200], [[0.0], [1.0]]), [1.5e54], math.inf),
    ],
)
def test_mean_value_is_the_ieee_sum_where_fsum_refuses(build, w, want):
    obj = build()
    with pytest.raises((ValueError, OverflowError)):
        math.fsum(obj.value_fn(j, w) for j in range(obj.n))
    assert repr(obj.value(w)) == repr(want)
    # Zhang's row kernel and the per-row fallback agree with value, between
    # rows fsum accepts
    W = np.array([[0.5], w, [0.25]])
    assert _bits(obj.mean_values(W)) == _bits([obj.value(row) for row in W.tolist()])


def test_mean_values_of_one_component_with_a_kernel_is_its_fsum():
    # math.fsum([-0.0]) is 0.0, which the n = 1 path gets by adding 0.0
    obj = FiniteSumObjective(
        "Custom", 1, 1, {}, value_fn=lambda j, w: w[0], grad_fn=lambda j, w: [1.0],
        values_fn=lambda W: W.copy(),
    )
    W = np.array([[-0.0], [0.0], [1.5], [-math.inf], [math.nan]])
    assert repr(obj.mean_values(W).tolist()) == repr([obj.value(w) for w in W.tolist()])
    assert repr(obj.mean_values(W).tolist()) == "[0.0, 0.0, 1.5, -inf, nan]"


def test_quadratic_value_overflows_to_inf_not_error():
    # each square is about 1e400: inf as a product, OverflowError as `** 2`
    obj = quadratic_sum([2.0, 2.0], [[-1.0], [3.0]])
    assert obj.value_fn(0, [1e200]) == math.inf
    assert obj.value([1e200]) == math.inf
    assert obj.mean_values(np.array([[1e200]])).tolist() == [math.inf]


def _few_bits(lo, hi):
    # m * 2**e with at most four mantissa bits: sums of them hit exact ties
    return st.builds(math.ldexp, st.integers(-15, 15), st.integers(lo, hi))


ROW_FAMILIES = [
    _few_bits(-60, 60),  # mixed exponents
    _few_bits(-1074, -1015),  # subnormals and the smallest normals
    _few_bits(-905, -895),  # around 2**-900
    _few_bits(995, 1015),  # around 2**1000
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, sys.float_info.max]),
]


@st.composite
def adversarial_blocks(draw):
    """rows x n blocks, n from 1 to 16: each row from one family or all of
    them, some entries the negations of others (x, -x cancelling pairs)."""
    n = draw(st.integers(1, 16))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        family = draw(st.sampled_from(ROW_FAMILIES + [st.one_of(ROW_FAMILIES)]))
        row = draw(st.lists(family, min_size=n, max_size=n))
        pairs = draw(st.integers(0, n // 2))
        row[n - pairs:] = [-v for v in row[:pairs]]
        rows.append(draw(st.permutations(row)))
    return np.array(rows).reshape(-1, n)


ROW_SUM_EXAMPLES = [
    [1.0, 2.0 ** -53],  # an exact tie: to even, 1.0
    [1.0 + 2.0 ** -52, 2.0 ** -53],  # an exact tie: to even, up
    [1.0, 2.0 ** -53, 2.0 ** -106],  # just above a tie
    [1.0, 2.0 ** -53, -(2.0 ** -106)],  # just below a tie
    [2.0 ** 60, 1.0, -(2.0 ** 60), 2.0 ** -60],  # cancellation
    [-0.0, -0.0],
    [math.inf, -math.inf, 1.0],  # fsum refuses: NaN
    [sys.float_info.max, sys.float_info.max, -sys.float_info.max],  # fsum overflows
    [5e-324, 5e-324, -5e-324],
    [math.nan, 1.0],
    # e = 2**-53 - 2**-106 sits just below the tie, and the three errors the
    # second cascade leaves in f lift the exact sum just above it: fsum
    # rounds up, so only the bound on sum(f) keeps 1.0 from being certified
    [1.0, 2.0 ** -53 - 2.0 ** -106] + [0.9 * 2.0 ** -107] * 3,
]
ROW_SUM_EXAMPLE_BLOCK = np.array([row + [0.0] * (5 - len(row)) for row in ROW_SUM_EXAMPLES])


@given(adversarial_blocks())
@example(ROW_SUM_EXAMPLE_BLOCK)
@settings(max_examples=300, deadline=None)
def test_row_sums_are_the_scalar_sum_of_each_row(V):
    assert _bits(landscapes._row_sums(V)) == _bits([landscapes._sum(row) for row in V.tolist()])


@given(adversarial_blocks())
@example(ROW_SUM_EXAMPLE_BLOCK)
@settings(max_examples=300, deadline=None)
def test_row_sums_certify_only_the_fsum_of_a_row(V):
    # with the scalar fallback made to return NaN, a row that is not NaN is
    # the certified NumPy sum, and it is math.fsum's, which does not refuse it
    fallback = []
    with mock.patch.object(landscapes, "_sum", lambda vals: fallback.append(vals) or math.nan):
        got = landscapes._row_sums(V)
    certified = [i for i, v in enumerate(got.tolist()) if not math.isnan(v)]
    assert len(fallback) <= len(V) - len(certified)
    assert _bits(got[certified]) == _bits([math.fsum(V[i].tolist()) for i in certified])


def test_row_sums_certify_the_counterexample_without_fallback():
    # its a + 9v rows, exact ties among them, all summed in NumPy
    obj = zhang_counterexample()
    W = np.random.default_rng(7).uniform(-30.0, 30.0, size=(4096, 1))
    W[:64, 0] = np.arange(-32, 32) / 4.0
    with mock.patch.object(landscapes, "_sum", lambda vals: math.nan):
        got = landscapes._row_sums(obj.values_fn(W))
    assert not np.isnan(got).any()


# each loadable kind's parameters, at n > 1 and at d = 1 to 3 where the
# kind allows; the QuadraticSum curvature-center products stay finite, which
# its builder's weighted center needs
LOADABLE_SPECS = {
    KIND_ZHANG: st.fixed_dictionaries({"scale": finite.filter(lambda s: s != 0.0)}),
    KIND_LOWERBOUND: st.fixed_dictionaries(
        {"L0": st.floats(1e-3, 1e3), "L1": st.floats(1e-3, 1e3), "epsilon": st.floats(1e-6, 1e3)}
    ),
    KIND_QUADRATIC: st.tuples(st.integers(2, 6), st.integers(1, 3)).flatmap(
        lambda nd: st.fixed_dictionaries({
            "curvatures": st.lists(st.floats(1e-300, 1e150), min_size=nd[0], max_size=nd[0]),
            "centers": st.lists(
                st.lists(st.floats(-1e150, 1e150), min_size=nd[1], max_size=nd[1]),
                min_size=nd[0], max_size=nd[0],
            ),
        })
    ),
}


@pytest.mark.parametrize("kind", sorted(_LOADABLE))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_each_loadable_kind_has_a_row_kernel_equal_to_value_fn(kind, data):
    assert set(LOADABLE_SPECS) == set(_LOADABLE)
    obj = from_spec({"kind": kind, "parameters": data.draw(LOADABLE_SPECS[kind])})
    # any coordinates: overflowing, infinite and NaN ones too
    coords = st.one_of(st.floats(), st.floats(-1e200, 1e200), st.sampled_from([1e155, -1e155, 1e300]))
    W = np.array(data.draw(st.lists(st.lists(coords, min_size=obj.d, max_size=obj.d), min_size=1, max_size=6)))
    assert obj.values_fn is not None
    got = obj.values_fn(W)
    assert got.shape == (len(W), obj.n)
    assert _bits(got) == _bits([[obj.value_fn(j, w) for j in range(obj.n)] for w in W.tolist()])


def test_quadratic_kernel_halves_the_curvature_first():
    # (0.5 * a[j]) * S, as value_fn: a * S overflows in the first row, and a
    # product of subnormal size rounds in the second
    obj = quadratic_sum([1e150, 3e-300], [[0.0], [0.0]])
    W = np.array([[1.5e79], [3e-5]])
    assert _bits(obj.values_fn(W)) == _bits([[obj.value_fn(j, w) for j in range(2)] for w in W.tolist()])


# ------------------------------------------------------------ snapshot norms

# the rows every grad_norms case is tried at, beside any finite coordinate
NORM_ROWS = (1e100, -1e100, 0.0, -0.0)


@st.composite
def grad_norm_cases(draw):
    """(objective, rows): the counterexample at scales up to +-1.7e308, where
    (0.02 * s) * x overflows to +-inf; d = 1, 2 and 3 QuadraticSums with
    extreme centers (a draw the builder refuses is rejected); and LowerBound
    and a d = 1 and a d = 2 Custom objective, which have no row kernel."""
    kind = draw(st.sampled_from([KIND_ZHANG, KIND_QUADRATIC, KIND_LOWERBOUND, KIND_CUSTOM]))
    if kind == KIND_ZHANG:
        scale = draw(st.one_of(st.sampled_from([1.7e308, -1.7e308, 1e300, 5e-324]), finite.filter(bool)))
        obj = zhang_counterexample(scale)
    elif kind == KIND_QUADRATIC:
        d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        coord = st.one_of(st.sampled_from([1e150, -1e150, 1e100, -0.0]), st.floats(-1e150, 1e150))
        try:
            obj = quadratic_sum(draw(st.lists(st.floats(1e-300, 1e150), min_size=n, max_size=n)),
                                draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n)))
        except ValueError as e:
            if "leaves the float range" not in str(e):
                raise
            reject()
    elif kind == KIND_LOWERBOUND:
        obj = lowerbound_objective(1.0, 0.5, 0.25)
    else:
        obj = draw(st.sampled_from([_custom(), FiniteSumObjective(
            KIND_CUSTOM, 2, 1, {}, value_fn=lambda j, w: 0.0, grad_fn=lambda j, w: [(j + 1.5) * w[0]])]))
    row = st.lists(st.one_of(st.sampled_from(NORM_ROWS), finite), min_size=obj.d, max_size=obj.d)
    return obj, np.array(draw(st.lists(row, max_size=6)), dtype=np.float64).reshape(-1, obj.d)


@given(grad_norm_cases())
@example((zhang_counterexample(1.7e308), np.array([[v] for v in NORM_ROWS])))
@example((zhang_counterexample(-1.7e308), np.array([[v] for v in NORM_ROWS])))
@example((quadratic_sum([1e150], [[-1e150]]), np.array([[v] for v in NORM_ROWS])))
@example((quadratic_sum([2.0, 1e-300], [[1e150, 0.0], [-1e150, -0.0]]), np.array([[1e100, -0.0], [-1e100, 0.0]])))
@settings(max_examples=300, deadline=None)
def test_grad_norms_are_hypot_of_full_grad_bit_for_bit(case):
    obj, W = case
    got = obj.grad_norms(W)
    assert got.shape == (len(W),) and got.dtype == np.float64
    assert [v.hex() for v in got.tolist()] == [math.hypot(*obj.full_grad(w)).hex() for w in W.tolist()]
    if obj.full_grads_fn is not None:  # each kernel row is full_grad's, at any d
        with np.errstate(over="ignore"):
            assert _bits(obj.full_grads_fn(W)) == _bits([obj.full_grad(w) for w in W.tolist()])


# ------------------------------------------------------------ slow landscape


def test_lowerbound_shape_and_minimum():
    obj = lowerbound_objective(1.0, 1.0, 0.5)
    assert obj.n == 1 and obj.d == 2
    assert obj.known_D0_D1 == (0.0, 1.0)
    assert obj.known_L0_L1 == (1.0, 1.0)
    # separable minimum sits at the origin, value L0 / (2 L1^2)
    assert obj.known_min == pytest.approx(0.5, rel=1e-15)
    assert obj.value([0.0, 0.0]) == pytest.approx(obj.known_min, rel=1e-15)
    assert np.allclose(obj.full_grad([0.0, 0.0]), 0.0)
    # and nearby values are no smaller
    for p in ([0.3, 0.0], [0.0, -0.4], [-0.2, 0.9]):
        assert obj.value(p) >= obj.known_min - 1e-15


def test_lowerbound_gradient_by_finite_differences():
    obj = lowerbound_objective(2.0, 0.5, 0.3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = [float(v) for v in rng.uniform(-3.0, 3.0, size=2)]
        g = obj.full_grad(w)
        for i in range(2):
            def f(t, i=i):
                p = list(w)
                p[i] = t
                return obj.value(p)

            assert g[i] == pytest.approx(central_diff(f, w[i]), rel=1e-5, abs=1e-7)


def test_lowerbound_single_component_equals_full():
    obj = lowerbound_objective(1.0, 1.0, 0.25)
    w = [1.7, -2.2]
    assert obj.value_fn(0, w) == pytest.approx(obj.value(w), rel=1e-15)
    assert np.allclose(obj.component_grad(0, w), obj.full_grad(w))


# positive parameters whose squares neither underflow to 0 nor overflow
lowerbound_parameter = st.floats(min_value=1e-150, max_value=1e150)


@st.composite
def lowerbound_rows(draw):
    """(L0, L1, epsilon) and points on which to compare LowerBound's row
    kernel with its scalar value: a grid that reaches both exponential arms
    of x and both linear ramps of y, the quadratic bands between them, the
    edges +-1/L1 and +-1 and the last floats inside them, +-0.0 and points
    far enough out for exp to overflow, followed by drawn rows."""
    L0, L1, epsilon = draw(lowerbound_parameter), draw(lowerbound_parameter), draw(lowerbound_parameter)
    b = 1.0 / L1
    edges = [
        b, -b, math.nextafter(b, 0.0), math.nextafter(-b, 0.0),
        1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
        0.0, -0.0, 1e308, -1e308,
    ]
    coordinate = st.one_of(st.sampled_from(edges), st.floats(-4.0, 4.0).map(lambda t: t * b), st.floats())
    drawn = draw(st.lists(st.tuples(coordinate, coordinate), max_size=64))
    return (L0, L1, epsilon), [(x, y) for x in edges for y in edges] + drawn


@given(lowerbound_rows())
@example(((1.0, 1.0, 0.5), [(800.0, 2.0), (-800.0, -2.0), (math.nan, -0.0)]))
@settings(max_examples=200, deadline=None)
def test_lowerbound_kernel_mean_values_equal_value_by_repr(case):
    (L0, L1, epsilon), rows = case
    obj = lowerbound_objective(L0, L1, epsilon)
    W = np.array(rows)
    # the kernel silences its own overflow and inf * 0 = NaN
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = obj.mean_values(W)
    # repr tells NaN and -0.0 apart
    assert repr(got.tolist()) == repr([obj.value(w) for w in W.tolist()])


@st.composite
def lowerbound_gradient_points(draw):
    """(L0, L1, epsilon) and a point for LowerBound's gradient: x at the
    edges +-1/L1 and their neighbours on either side, at +-0.0, far enough
    out that _exp gives inf, or drawn; y likewise at +-1."""
    L0, L1, epsilon = draw(lowerbound_parameter), draw(lowerbound_parameter), draw(lowerbound_parameter)
    b = 1.0 / L1
    x_edges = [
        b, -b, math.nextafter(b, 0.0), math.nextafter(b, math.inf),
        math.nextafter(-b, 0.0), math.nextafter(-b, -math.inf), 0.0, -0.0, 800.0 * b, -800.0 * b, 1e308,
    ]
    y_edges = [
        1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
        math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0), 0.0, -0.0,
    ]
    x = draw(st.one_of(st.sampled_from(x_edges), st.floats(-4.0, 4.0).map(lambda t: t * b), st.floats()))
    y = draw(st.one_of(st.sampled_from(y_edges), st.floats()))
    return (L0, L1, epsilon), [x, y]


@given(lowerbound_gradient_points())
# at x = 1/L1 the exponential arm gives 0.6 and the quadratic band
# 0.6000000000000001: the edges belong to the arms
@example(((3.0, 5.0, 0.5), [1.0 / 5.0, 1.0]))
@example(((3.0, 5.0, 0.5), [-1.0 / 5.0, -1.0]))
@example(((2.0, 0.5, 0.25), [1600.0, -0.0]))  # _exp(799.0) is inf
@settings(max_examples=300, deadline=None)
def test_lowerbound_gradient_is_its_coordinate_functions_bit_for_bit(case):
    # grad_fn writes expquad_grad's and linquad_grad's expressions inline;
    # full_grad_fn is grad_fn at component 0. repr tells NaN and -0.0 apart
    (L0, L1, epsilon), w = case
    obj = lowerbound_objective(L0, L1, epsilon)
    want = repr([expquad_grad(w[0], L0, L1), linquad_grad(w[1], epsilon)])
    assert repr(obj.grad_fn(0, w)) == want
    assert repr(obj.full_grad_fn(w)) == want
    assert repr(obj.full_grad(w)) == want


def test_make_lowerbound_value_gap_identity():
    # the requested excess over the minimum is achieved exactly when it
    # equals twice the axis gap of the construction
    L0 = L1 = 1.0
    M = 100.0
    axis_gap = M / (2.0 * L1) - L0 / (4.0 * L1 * L1)
    f_bar = 2.0 * axis_gap
    obj, w0, con = make_lowerbound(L0, L1, T=10_000, M=M, f_bar=f_bar)
    gap = obj.value(w0) - obj.known_min
    assert gap == pytest.approx(f_bar, rel=1e-9)
    assert con.axis_gap == pytest.approx(axis_gap, rel=1e-12)


# ------------------------------------------------------------ quadratic sums


def test_quadratic_sum_two_centers():
    obj = quadratic_sum([2.0, 2.0], [[-1.0], [3.0]])
    assert obj.n == 2 and obj.d == 1
    # the mean of the two parabolas bottoms out at the weighted center
    assert obj.known_min == pytest.approx(obj.value([1.0]), rel=1e-12)
    assert abs(obj.full_grad([1.0])[0]) < 1e-12
    assert obj.component_grad(0, [0.0])[0] == pytest.approx(2.0, rel=1e-15)
    assert obj.component_grad(1, [0.0])[0] == pytest.approx(-6.0, rel=1e-15)
    assert obj.known_L0_L1 == (2.0, 0.0)


def test_quadratic_sum_noise_envelope_holds():
    obj = dataclasses.replace(quadratic_sum([2.0, 2.0], [[-1.0], [3.0]]), known_D0_D1=(16.0, 1.0))
    d0, d1 = obj.known_D0_D1
    for x in np.linspace(-10.0, 10.0, 101):
        w = [float(x)]
        fg = obj.full_grad(w)[0]
        u = fg * fg
        v = np.mean([obj.component_grad(j, w)[0] ** 2 for j in range(obj.n)])
        assert v <= d1 * u + d0 + 1e-9 * max(1.0, v)


def test_quadratic_sum_rejects_bad_input():
    # each refusal begins with the parameter it refuses
    for curvatures, centers, key in (
        ([1.0, 2.0], [[0.0]], "centers"),
        ([1.0, 2.0], [[0.0], [0.0, 1.0]], "centers"),
        ([1.0], [[]], "centers"),
        ([], [], "curvatures"),
        ([-1.0], [[0.0]], r"curvatures\[0\]"),
    ):
        with pytest.raises(ValueError, match=f"^{key}: "):
            quadratic_sum(curvatures, centers)


# -------------------------------------------------------------- smoothness


@given(st.floats(min_value=-8.0, max_value=8.0), st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=150, deadline=None)
def test_lowerbound_pairwise_smoothness_bound(x, y):
    # gradient differences obey the affine-in-gradient-norm rate
    L0, L1 = 1.5, 0.75
    obj = lowerbound_objective(L0, L1, 0.5)
    a = [x, y]
    b = [x + 1e-3, y - 1e-3]
    ga = np.asarray(obj.full_grad(a))
    gb = np.asarray(obj.full_grad(b))
    lhs = float(np.linalg.norm(ga - gb))
    dist = float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
    rhs = (L0 + L1 * float(np.linalg.norm(ga))) * dist
    # first-order bound along a short segment, small allowance for curvature
    assert lhs <= rhs * (1.0 + 5e-3) + 1e-12


def test_analytic_smoothness_local_bound():
    obj = zhang_counterexample(1.0)
    assert obj.smooth_fn([0.0]) == pytest.approx(0.02)
    lb = lowerbound_objective(1.0, 1.0, 0.5)
    # inside both cores the bound is max(L0, eps)
    assert lb.smooth_fn([0.0, 0.0]) == pytest.approx(1.0)
    # on the exponential branch it tracks the gradient magnitude
    g = expquad_grad(3.0, 1.0, 1.0)
    assert lb.smooth_fn([3.0, 0.0]) == pytest.approx(1.0 * abs(g), rel=1e-12)


# ------------------------------------------------------------- validation


def test_each_boundary_refuses_a_wrong_dimension_or_non_finite_point():
    # the objective's methods check nothing: a point is checked once, by
    # check_point, where it enters a run or a probe
    obj = zhang_counterexample(1.0)
    good = [0.5]
    assert check_point(obj, [1]) == [1.0]
    for bad in ([1.0, 2.0], [], [math.nan], [math.inf], [-math.inf], [10**400]):
        for enter in (
            lambda: check_point(obj, bad),
            lambda: adam_run(obj, bad, AdamParams(epochs=0)),
            lambda: gd_run(obj, bad, eta1=0.1, steps=0),
            lambda: local_smoothness(obj, bad, good),
            lambda: local_smoothness(obj, good, bad),
            lambda: affine_noise_fit(obj, [good, bad]),
        ):
            with pytest.raises(ValueError):
                enter()


def test_spec_round_trip():
    for obj in (
        zhang_counterexample(2.5),
        lowerbound_objective(1.0, 0.5, 0.25),
        quadratic_sum([1.0, 3.0], [[0.5], [0.5]]),
    ):
        spec = to_spec(obj)
        back = from_spec(spec)
        assert back.kind == obj.kind
        assert back.n == obj.n and back.d == obj.d
        w = [0.37] * obj.d
        assert back.value(w) == pytest.approx(obj.value(w), rel=1e-15)
        assert np.allclose(back.full_grad(w), obj.full_grad(w))
    # a parameter left out takes its default from the builder's signature
    assert from_spec({"kind": "ZhangCounterexample", "parameters": {}}).parameters == {"scale": 1.0}
    assert from_spec({"kind": "ZhangCounterexample"}).parameters == {"scale": 1.0}


def test_from_spec_rejects_unknown_kind_and_bad_dims():
    for kind in ("nope", KIND_CUSTOM):
        with pytest.raises(ValueError, match="^objective.kind: expected one of "):
            from_spec({"kind": kind, "parameters": {}})
    good = to_spec(zhang_counterexample(1.0))
    good["d"] = 7
    with pytest.raises(ValueError, match=r"^objective\.d: expected 1 \(this ZhangCounterexample's d\), got 7$"):
        from_spec(good)
    # each kind's parameters are its builder's keyword arguments: an unknown
    # one and a missing required one are refused by name
    for obj, missing in (
        (zhang_counterexample(1.0), None),
        (lowerbound_objective(1.0, 0.5, 0.25), "L1"),
        (quadratic_sum([1.0, 3.0], [[0.5], [0.5]]), "centers"),
    ):
        spec = to_spec(obj)
        with pytest.raises(ValueError, match=r"^objective\.parameters\.known_D0_D1: unknown key$"):
            from_spec({**spec, "parameters": {**spec["parameters"], "known_D0_D1": [0.0, 1.0]}})
        if missing is not None:
            kept = {k: v for k, v in spec["parameters"].items() if k != missing}
            with pytest.raises(ValueError, match=rf"^objective\.parameters\.{missing}: missing$"):
                from_spec({**spec, "parameters": kept})


def test_custom_objective_not_serializable():
    obj = FiniteSumObjective(
        KIND_CUSTOM, 1, 1, {},
        value_fn=lambda j, w: float(w[0] ** 2),
        grad_fn=lambda j, w: [2.0 * w[0]],
    )
    with pytest.raises(ValueError):
        to_spec(obj)
