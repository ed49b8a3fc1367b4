"""Every number in an options record or an objective spec has a range or is
named here.

An options field or a landscape builder's parameter (the spec's
``parameters``) typed with one of the ranges declared in ``schema.py``
(``Positive``, ``Count``, ``Fraction``, ...) is refused at load outside
that range. A field typed as a plain ``int`` or ``float`` is checked for
finiteness only, so a value the program cannot use reaches a run: Fig3's
``tail_frac`` of 1e308 once ended in an OverflowError after its runs. The
allowlist names the plain-number fields that stay, each with its reason.
"""

import dataclasses
import typing

from adamlab.harness import REGISTRY
from adamlab.landscapes import _LOADABLE
from adamlab.schema import Positive, Range, fields_of

ALLOWED = {
    "Fig3Options.grad_floor": "a threshold the tail mean is compared with; every finite value is a test",
    "Thm2DivergenceOptions.growth_tol": "a slack on the log sqrt(2) growth test; a negative one makes it stricter",
    "Thm2DivergenceOptions.min_checks_per_run": "a threshold a check count is compared with; every integer is a test",
    "Thm2DivergenceOptions.min_checks_total": "a threshold a check count is compared with; every integer is a test",
    "zhang_counterexample.scale": "any finite nonzero number; the builder refuses 0",
}


def number_fields(cls) -> dict[str, bool]:
    """``Record.field`` -> whether it is range-typed, for each int- or
    float-typed field of ``cls`` (a dataclass, or a function's parameters)
    and of the records nested in it."""
    found = {}
    for name, (hint, _) in fields_of(cls).items():
        if typing.get_origin(hint) is typing.Union:  # Optional[X]
            [hint] = [a for a in typing.get_args(hint) if a is not type(None)]
        if dataclasses.is_dataclass(hint):
            found.update(number_fields(hint))
            continue
        ranged = typing.get_origin(hint) is typing.Annotated
        base, allowed = typing.get_args(hint) if ranged else (hint, None)
        if base in (int, float):
            found[f"{cls.__name__}.{name}"] = isinstance(allowed, Range)
    return found


def test_every_number_option_is_ranged_or_allowlisted():
    found = {}
    for record in [exp.Options for exp in REGISTRY.values()] + list(_LOADABLE.values()):
        found.update(number_fields(record))
    assert sorted(name for name, ranged in found.items() if not ranged and name not in ALLOWED) == []
    # an allowlist entry that is gone or has become range-typed is stale
    assert sorted(name for name in ALLOWED if found.get(name) is not False) == []


def test_number_field_detection():
    @dataclasses.dataclass(frozen=True)
    class Inner:
        cap: typing.Optional[Positive] = None
        loose: int = 0

    @dataclasses.dataclass(frozen=True)
    class Outer:
        rate: Positive = 1.0
        tol: float = 0.0
        other: typing.Annotated[float, "not a range"] = 0.0
        grid: list[float] = ()
        name: str = ""
        flag: bool = False
        inner: Inner = Inner()

    assert number_fields(Outer) == {
        "Outer.rate": True, "Outer.tol": False, "Outer.other": False, "Inner.cap": True, "Inner.loose": False,
    }

    def build(rate: Positive, inner: Inner, tol: float = 0.0, grid: list[float] = ()):
        pass

    assert number_fields(build) == {"build.rate": True, "Inner.cap": True, "Inner.loose": False, "build.tol": False}
