"""Gradient descent against a column-list reference, column for column.

The reference below is ``gd_run`` as it was while its loop still appended
every column of both tables, ``k``, ``eta``, ``w_prev``, ``i``, ``tau``,
``w_before`` and ``update_abs`` included. It is kept verbatim, except that
its column lists are plain dicts owned by this test and it returns them as
row lists instead of building the tables; do not optimize it.

Every column of both tables, the status, the failing step, the final
iterate, the algorithm name and the parameters must equal the reference
by repr, which is exact for floats and tells NaN and -0.0 apart.
"""

import math
from typing import Optional, Sequence

import numpy as np
from hypothesis import event, given, settings, strategies as st

from adamlab.landscapes import (
    KIND_CUSTOM,
    FiniteSumObjective,
    lowerbound_objective,
    quadratic_sum,
    to_spec,
    zhang_counterexample,
)
from adamlab.optimizers import (
    GUARD_SUP_NORM,
    SCHEDULE_CONSTANT,
    SCHEDULE_DIMINISHING,
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    STATUS_NONFINITE,
    EpochTable,
    StepTable,
    Trajectory,
    gd_run,
)

# ---------------------------------------------------------------- reference

EPOCH_LISTS = ("k", "eta", "w0", "w_prev", "grad_norm")
STEP_LISTS = ("k", "i", "tau", "w_before", "ratio", "update_abs")
MATRIX = ("w0", "w_prev", "w_before", "ratio", "update_abs")


def _classify(w: Sequence[float]) -> Optional[str]:
    """None if the iterate is acceptable, else a failure status."""
    for v in w:
        if math.isnan(v):
            return STATUS_NONFINITE
    for v in w:
        if abs(v) > GUARD_SUP_NORM:
            return STATUS_DIVERGED
    return None


def reference_gd_run(
    obj: FiniteSumObjective,
    w0: Sequence[float],
    eta1: float,
    steps: int,
    schedule: str = SCHEDULE_CONSTANT,
    clip_threshold: Optional[float] = None,
    record_steps: bool = True,
) -> dict:
    if not (math.isfinite(eta1) and eta1 > 0):
        raise ValueError("eta1 must be positive and finite")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if clip_threshold is not None and not (clip_threshold > 0):
        raise ValueError("clip_threshold must be positive")
    if schedule not in (SCHEDULE_DIMINISHING, SCHEDULE_CONSTANT):
        raise ValueError(f"unknown schedule {schedule!r}")

    if len(w0) != obj.d:
        raise ValueError("w0 dimension mismatch")
    w = [float(v) for v in w0]
    for v in w:
        if not math.isfinite(v):
            raise ValueError("non-finite start point")
    d = obj.d
    snaps = {name: [] for name in EPOCH_LISTS}
    recs = {name: [] for name in STEP_LISTS}
    status = STATUS_COMPLETED
    fail = None
    w_prev = list(w)

    for k in range(1, steps + 2):
        eta = eta1 if schedule == SCHEDULE_CONSTANT else eta1 / math.sqrt(k)
        g = obj.full_grad(w)
        gn = math.hypot(*g)
        snaps["k"].append(k)
        snaps["eta"].append(eta)
        snaps["w0"].extend(w)
        snaps["w_prev"].extend(w_prev)
        snaps["grad_norm"].append(gn)
        if k > steps:
            break  # closing boundary snapshot k = steps + 1
        step_vec = list(g)
        if clip_threshold is not None and gn > clip_threshold:
            if math.isfinite(gn):
                c = clip_threshold / gn
                step_vec = [v * c for v in g]
            elif not any(math.isnan(v) for v in g):
                # direction only defined by the infinite coordinates
                infs = [l for l in range(d) if math.isinf(g[l])]
                scale = clip_threshold / math.sqrt(len(infs))
                step_vec = [
                    math.copysign(scale, g[l]) if l in infs else 0.0 for l in range(d)
                ]
        upds = [eta * v for v in step_vec]
        if record_steps:
            recs["k"].append(k)
            recs["i"].append(0)
            recs["tau"].append(-1)
            recs["w_before"].extend(w)
            recs["ratio"].extend([abs(v) for v in step_vec])
            recs["update_abs"].extend([abs(u) for u in upds])
        w_prev = list(w)
        for l in range(d):
            w[l] = w[l] - upds[l]
        bad = _classify(w)
        if bad is not None:
            status = bad
            fail = (k, 0)
            break

    try:
        spec = to_spec(obj)
    except ValueError:
        spec = None

    def rows(cols: dict) -> dict:
        return {
            name: [vals[r:r + d] for r in range(0, len(vals), d)] if name in MATRIX else vals
            for name, vals in cols.items()
        }

    epochs = rows(snaps)
    epochs["f_value"] = obj.mean_values(np.array(snaps["w0"]).reshape(-1, d)).tolist()
    step_rows = rows(recs)
    step_rows["f_value"] = epochs["f_value"][:len(step_rows["k"])]
    return {
        "algo": "gd" if clip_threshold is None else "clipped_gd",
        "params": {
            "eta1": eta1,
            "steps": steps,
            "schedule": schedule,
            "clip_threshold": clip_threshold,
        },
        "objective_spec": spec,
        "steps": step_rows,
        "epochs": epochs,
        "status": status,
        "fail_step": fail,
        "final_w": tuple(w),
    }


def assert_same_gd_run(got: Trajectory, expected: dict) -> None:
    for table, cls in (("epochs", EpochTable), ("steps", StepTable)):
        want = expected[table]
        for name in cls.__dataclass_fields__:
            col = getattr(getattr(got, table), name)
            assert repr(col.tolist()) == repr(want[name]), (table, name)
    assert (got.status, got.fail_step) == (expected["status"], expected["fail_step"])
    assert repr(got.final_w) == repr(expected["final_w"])
    assert (got.algo, got.params, got.objective_spec) == (
        expected["algo"], expected["params"], expected["objective_spec"],
    )


# ---------------------------------------------------------------- problems

finite = dict(allow_nan=False, allow_infinity=False)


def boundary_drift(bound: float, past: float, past_y: Optional[float] = None) -> FiniteSumObjective:
    """Two components, d = 2, whose mean gradient pushes x upward at a
    constant rate and turns x's partial into ``past`` (+-inf or NaN) once x
    is above ``bound``. y's partial turns into ``past_y`` there too when it
    is given, and otherwise stays finite, so clipping keeps only the
    infinite coordinate."""

    def grad_fn(j, w):
        if w[0] <= bound:
            return [-1.0 - 0.5 * j, 0.25 * (j + 1)]
        return [past, 0.25 * (j + 1) if past_y is None else past_y]

    return FiniteSumObjective(
        KIND_CUSTOM, 2, 2, {},
        value_fn=lambda j, w: (-1.0 - 0.5 * j) * w[0] + 0.25 * (j + 1) * w[1], grad_fn=grad_fn,
    )


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(["zhang", "quadratic", "lowerbound", "drift", "drift"]))
    if kind == "zhang":
        scale = draw(st.floats(0.1, 20.0, **finite)) * draw(st.sampled_from([1.0, -1.0]))
        return zhang_counterexample(scale), [draw(st.floats(-5.0, 5.0, **finite))]
    if kind == "quadratic":
        n = draw(st.integers(1, 5))
        d = draw(st.integers(2, 3))
        coords = st.floats(-5.0, 5.0, **finite)
        curv = draw(st.lists(st.floats(0.1, 10.0, **finite), min_size=n, max_size=n))
        centers = [draw(st.lists(coords, min_size=d, max_size=d)) for _ in range(n)]
        return quadratic_sum(curv, centers), draw(st.lists(coords, min_size=d, max_size=d))
    if kind == "lowerbound":
        L1 = draw(st.floats(0.5, 2.0, **finite))
        obj = lowerbound_objective(draw(st.floats(0.5, 2.0, **finite)), L1, draw(st.floats(1e-3, 0.5, **finite)))
        # either exponential arm (|x| >= 1 / L1) or the quadratic band, and
        # the edges x = +-1 / L1 and y = +-1, which belong to the outer arms
        arm = draw(st.sampled_from([-1.0, 1.0]))
        x = arm * draw(st.one_of(
            st.just(1.0 / L1), st.floats(1.0 / L1, 4.0, **finite), st.floats(0.0, 1.0 / L1, **finite),
        ))
        return obj, [x, draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0, **finite)))]
    bound = draw(st.one_of(st.floats(0.5, 5.0, **finite), st.just(math.inf)))
    past = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    past_y = draw(st.sampled_from([None, math.inf, math.nan]))
    return boundary_drift(bound, past, past_y), [draw(st.floats(-1.0, 0.5, **finite)), 0.0]


gd_options = st.fixed_dictionaries({
    # small, large enough to overflow mid-run, and past the guard
    "eta1": st.one_of(st.floats(1e-3, 2.0, **finite), st.sampled_from([1e3, 1e99, 1e101])),
    "steps": st.integers(0, 40),
    "schedule": st.sampled_from([SCHEDULE_DIMINISHING, SCHEDULE_CONSTANT]),
    "clip_threshold": st.one_of(st.none(), st.floats(1e-3, 10.0, **finite)),
    "record_steps": st.booleans(),
})


@given(problems(), gd_options)
@settings(max_examples=250, deadline=None)
def test_gd_run_matches_column_list_reference(problem, options):
    obj, w0 = problem
    expected = reference_gd_run(obj, w0, **options)
    event(f"status {expected['status']}")
    stepped = expected["epochs"]["grad_norm"][:options["steps"]]
    clipped = options["clip_threshold"] is not None
    event(f"clipped {clipped}, infinite gradient {any(map(math.isinf, stepped))}")
    assert_same_gd_run(gd_run(obj, w0, **options), expected)


def test_gd_oracle_covers_every_status_and_the_infinite_clip():
    # the strategies reach each status and the infinite-coordinate clipping
    # branch; pinned examples keep that visible
    runs = [
        (STATUS_COMPLETED, zhang_counterexample(), [0.5], dict(eta1=0.1, steps=30)),
        (STATUS_DIVERGED, zhang_counterexample(), [0.5], dict(eta1=1e101, steps=5)),
        (STATUS_DIVERGED, boundary_drift(1.0, math.inf), [0.0, 0.0], dict(eta1=0.5, steps=10)),
        (STATUS_NONFINITE, boundary_drift(1.0, math.nan), [0.0, 0.0], dict(eta1=0.5, steps=10)),
        # x's partial turns +inf past the bound and y's NaN: clipping does
        # not drop the NaN, and the guard stops the run
        (STATUS_NONFINITE, boundary_drift(1.0, math.inf, math.nan), [0.0, 0.0],
         dict(eta1=0.5, steps=10, clip_threshold=0.5, schedule=SCHEDULE_DIMINISHING)),
        # x's partial turns +inf past the bound: the clipped step is
        # (-0.5 * eta, 0.0) there, and the run completes
        (STATUS_COMPLETED, boundary_drift(1.0, math.inf), [0.0, 0.0],
         dict(eta1=0.5, steps=10, clip_threshold=0.5, schedule=SCHEDULE_DIMINISHING)),
    ]
    for status, obj, w0, options in runs:
        got, expected = gd_run(obj, w0, **options), reference_gd_run(obj, w0, **options)
        assert got.status == status
        assert_same_gd_run(got, expected)
    # the last run took the infinite-coordinate branch at least once
    assert math.isinf(got.epochs.grad_norm.max())
    assert got.steps.ratio.tolist()[got.epochs.grad_norm.argmax()] == [0.5, 0.0]
