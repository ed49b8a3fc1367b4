"""Every experiment's config, fuzzed from its schema: a config mistake ends in
exit 2 with a message led by its key path, never in a traceback.

``values`` derives a Hypothesis strategy from a ``schema`` type hint: a
``Range`` gives numbers at and next to both ends and extreme magnitudes
inside it, an ``Axis`` one to three distinct items, a ``Literal`` one of its
values and an ``Optional`` None or the inner type; a record (an options
dataclass or an objective builder) gives its required fields and its budgets,
kept small, and any of the others. A new option is fuzzed with no edit here. Each drawn config runs
through ``cli.main`` in process, which must return 0, 1 with a report
written, or 2 with a message whose key path names a config field.

The suite draws 25 derandomized configs per experiment. A longer run, with
fresh random draws each time, is opt-in:

    ADAMLAB_FUZZ_EXAMPLES=2000 python -m pytest tests/test_config_fuzz.py
"""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import sys
import tempfile
import typing

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from adamlab import harness
from adamlab.cli import main as cli_main
from adamlab.harness import REGISTRY, ExperimentConfig
from adamlab.landscapes import _LOADABLE
from adamlab.schema import Range, fields_of

# the budgets, by field name, and their largest value, always drawn: the
# runs stay short, the ranges are fuzzed everywhere else
BUDGETS = {"T": 40, "steps": 200, "gd_steps": 200, "epochs": 40}

# inside-the-range magnitudes every float range is tried at
EXTREMES = (5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e300, sys.float_info.max)
PLAIN = {
    float: st.one_of(
        st.sampled_from([0.0, -0.0, *EXTREMES, *(-v for v in EXTREMES)]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    int: st.integers(-(2**64), 2**64),
    bool: st.booleans(),
}


def _in_range(base, allowed: Range, cap=None):
    if base is int:
        lo = int(allowed.lo) + allowed.lo_open
        hi = min(cap or 2**64, int(allowed.hi) - allowed.hi_open if math.isfinite(allowed.hi) else 2**64)
        return st.one_of(st.sampled_from(sorted({lo, lo + 1, hi - 1, hi})), st.integers(lo, hi))
    lo = math.nextafter(allowed.lo, math.inf) if allowed.lo_open else allowed.lo
    hi = math.nextafter(allowed.hi, -math.inf) if allowed.hi_open else allowed.hi
    edges = [lo, math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf), hi]
    inside = [v for v in EXTREMES + tuple(-v for v in EXTREMES) if v in allowed]
    return st.one_of(st.sampled_from(edges + inside), st.floats(lo, hi))


def values(hint, name: str = ""):
    """A strategy for config values of type ``hint``, field ``name``'s."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        [inner] = [a for a in args if a is not type(None)]
        return st.none() | values(inner, name)
    if origin is typing.Annotated:
        base, allowed = args
        if isinstance(allowed, Range):
            return _in_range(base, allowed, BUDGETS.get(name))
        [item] = typing.get_args(base)  # an Axis
        return st.lists(values(item, name), min_size=1, max_size=3, unique=True)
    if origin is list:
        return st.lists(values(args[0], name), max_size=3)
    if origin is typing.Literal:
        return st.sampled_from(args)
    if dataclasses.is_dataclass(hint) or inspect.isfunction(hint):
        return record(hint)
    return PLAIN[hint]


def record(owner, skip=()):
    """A dict of a dataclass's fields or a function's parameters: each
    required one and each budget, and any of the others."""
    spec = {name: values(hint, name) for name, (hint, _) in fields_of(owner).items() if name not in skip}
    required = {name for name, (_, req) in fields_of(owner).items() if req or name in BUDGETS}
    return st.fixed_dictionaries(
        {k: v for k, v in spec.items() if k in required},
        optional={k: v for k, v in spec.items() if k not in required},
    )


objectives = st.sampled_from(sorted(_LOADABLE)).flatmap(
    lambda kind: st.fixed_dictionaries({"kind": st.just(kind), "parameters": record(_LOADABLE[kind])})
)


def configs(exp):
    """Overrides of an experiment's config: its top-level fields, its
    options, and, unless it builds a construction, its objective."""
    fields = {"options": record(exp.Options)}
    if "construction" not in fields_of(exp.Options):
        fields["objective"] = objectives
    return st.fixed_dictionaries({}, optional=fields).flatmap(
        lambda extra: record(ExperimentConfig, skip={"experiment", "objective", "out_dir", "options"}).map(
            lambda top: {**top, **extra}))


FUZZ_EXAMPLES = int(os.environ.get("ADAMLAB_FUZZ_EXAMPLES", "0"))

CONFIG_FIELDS = "|".join(f.name for f in dataclasses.fields(ExperimentConfig))
KEY_PATH = re.compile(rf"config error: ({CONFIG_FIELDS})(\.\w+|\[\d+\])*: ")


@pytest.mark.parametrize("name", sorted(REGISTRY))
@settings(max_examples=FUZZ_EXAMPLES or 25, derandomize=not FUZZ_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_config_ends_in_an_exit_code(name, data):
    exp = REGISTRY[name]
    overrides = data.draw(configs(exp), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(overrides, fh)
        out, err, lanes = io.StringIO(), io.StringIO(), []
        real = harness.adam_lockstep
        harness.adam_lockstep = lambda obj, w0, group: lanes.append(len(group)) or real(obj, w0, group)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([exp.command, "--config", path, "--out", os.path.join(tmp, "out")])
        finally:
            harness.adam_lockstep = real
        report = os.path.join(tmp, "out", name, "report.json")
        if code == 1:
            assert os.path.isfile(report), err.getvalue()
        elif code == 2:
            assert KEY_PATH.match(err.getvalue()), err.getvalue()
        else:
            assert code == 0
        event(f"exit {code}" + (", a lockstep group" if lanes else ""))
