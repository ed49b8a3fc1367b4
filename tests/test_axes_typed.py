"""Every list-typed option is a run axis or is named here.

An options field typed ``schema.Axis(X)`` is refused when the config loads
if it is empty, on which an experiment would run nothing and pass, or if it
repeats a value, which would run again. A field typed as a plain ``list``
gets neither check, so a new grid declared that way would skip the rule.
The allowlist names the list-typed fields that are not run axes, each with
its reason.
"""

import dataclasses
import typing

from adamlab.harness import REGISTRY
from adamlab.schema import Axis, fields_of

ALLOWED = {
    "Fig3Options.x0": "a point, not a grid",
    "LemmaSuiteOptions.x0": "a point, not a grid",
    "CustomOptions.x0": "a point, not a grid",
    "Thm2SlowOptions.complete_multipliers": "a subset of eta_multipliers, and it may be empty",
}


def list_fields(cls) -> dict[str, bool]:
    """``Record.field`` -> whether it is an ``Axis``, for each list-typed field
    of ``cls`` and of the records nested in it."""
    found = {}
    for name, (hint, _) in fields_of(cls).items():
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            [hint] = [a for a in typing.get_args(hint) if a is not type(None)]
        base = typing.get_args(hint)[0] if typing.get_origin(hint) is typing.Annotated else hint
        if dataclasses.is_dataclass(hint):
            found.update(list_fields(hint))
        elif typing.get_origin(base) is list:
            found[f"{cls.__name__}.{name}"] = hint == Axis(typing.get_args(base)[0])
    return found


def test_every_list_option_is_an_axis_or_allowlisted():
    found = {}
    for exp in REGISTRY.values():
        found.update(list_fields(exp.Options))
    assert sorted(name for name, axis in found.items() if not axis and name not in ALLOWED) == []
    # an allowlist entry that is gone or has become an axis is stale
    assert sorted(name for name in ALLOWED if found.get(name) is not False) == []


def test_list_field_detection():
    @dataclasses.dataclass(frozen=True)
    class Inner:
        grid: Axis(float) = (1.0,)
        loose: list[int] = ()

    @dataclasses.dataclass(frozen=True)
    class Outer:
        axis: Axis(str) = ("a",)
        point: typing.Optional[list[float]] = None
        ranged: typing.Annotated[list[float], "other"] = ()
        inner: Inner = Inner()
        scalar: float = 0.0

    assert list_fields(Outer) == {
        "Outer.axis": True, "Outer.point": False, "Outer.ranged": False, "Inner.grid": True, "Inner.loose": False,
    }
