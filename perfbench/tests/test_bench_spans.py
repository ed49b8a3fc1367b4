import types

import pytest

import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(name, start, end, parent=-1, leaf_s=0.0):
    return [name, start, end, parent, leaf_s, 0]


def test_self_time_subtracts_children_and_leaves():
    s = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0, leaf_s=0.5),
        span("b", 4.0, 8.0, parent=0),
        span("b.inner", 5.0, 6.0, parent=2),
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 1.5, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    s = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 7.0, parent=0),
        span("c", 9.0, 12.0, parent=0),  # runs past its parent: only 1 s is covered
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_per_name_sums_calls_and_times():
    s = [span("run", 0.0, 4.0), span("epoch", 0.0, 1.0, 0), span("epoch", 2.0, 3.0, 0, leaf_s=0.25)]
    agg = spans.per_name(s)
    assert agg["epoch"]["calls"] == 2
    assert agg["epoch"]["total_s"] == pytest.approx(2.0)
    assert agg["epoch"]["self_s"] == pytest.approx(1.75)
    assert agg["run"]["self_s"] == pytest.approx(2.0)


def test_tracer_nests_spans_and_charges_leaves_to_the_open_span():
    clock = FakeClock()
    tracer = spans.Tracer(op_id=7, clock=clock)

    def leaf_fn(dt):
        clock.now += dt
        return "leaf"

    leaf = tracer.leaf("leaf", leaf_fn)

    def inner():
        clock.now += 1.0
        return leaf(0.25)

    inner_w = tracer.span("inner", inner)

    def outer():
        clock.now += 2.0
        inner_w()
        leaf(0.5)
        clock.now += 1.0

    tracer.context = "ctx"
    tracer.span("outer", outer)()
    leaf(3.0)  # outside every span: counted but charged to none

    assert [s[spans.NAME] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][spans.PARENT] == 0
    assert all(s[spans.OP] == 7 for s in tracer.spans)
    assert spans.self_times(tracer.spans) == pytest.approx([3.0, 1.0])
    assert tracer.leaves == {("leaf", "ctx"): [3, pytest.approx(3.75)]}
    assert tracer.leaf_totals()["leaf"][0] == 3


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tracer.span("boom", boom)()
    assert tracer.spans[0][spans.END] == 1.0
    tracer.span("after", lambda: None)()
    assert tracer.spans[1][spans.PARENT] == -1


def test_rebind_replaces_every_name_bound_to_the_function():
    def fn():
        return 1

    a = types.ModuleType("a")
    b = types.ModuleType("b")
    a.fn = fn
    b.alias = fn
    b.other = len
    assert spans.rebind([a, b], fn, "wrapped") == 2
    assert a.fn == "wrapped" and b.alias == "wrapped" and b.other is len
