"""One type checker for config records: dataclasses and functions.

``parse`` builds a dataclass, or calls a function, from a dict checked
against its fields or parameters (type hints; required without a default).
An unknown key, a missing field and a mistyped value are errors. bool is
neither an int nor a float; an int given for a float is kept as an int, so
a multiplier given as ``2`` is echoed as ``2``. A number is finite
(``json.load`` accepts ``NaN`` and ``Infinity``). A nested record fills its
missing fields from its defaults. Every error is a ValueError that names
the key's path, such as ``options.adam.beta1``; a record's own ValueError
begins with the field it refuses and is given the record's path.
Each parameter range is declared once, below, as an ``Annotated`` type, and
so is the rule every run axis shares: ``Axis(item)``, a non-empty list of
``item`` values with none repeated.
"""

import dataclasses
import functools
import inspect
import math
import sys
import typing
from typing import Annotated, Literal, Union

_SCALARS = {  # hint -> (description, accepted types); only bool accepts a bool
    float: ("a number", (int, float)), int: ("an integer", int), bool: ("true or false", bool),
    str: ("a string", str), dict: ("an object", dict),
}


@dataclasses.dataclass(frozen=True)
class Range:
    """Numbers from lo to hi, each end excluded if it is open; not NaN."""

    lo: float
    hi: float = float("inf")
    lo_open: bool = False
    hi_open: bool = True

    def __contains__(self, v) -> bool:
        return (self.lo < v if self.lo_open else self.lo <= v) and (v < self.hi if self.hi_open else v <= self.hi)

    def __str__(self) -> str:
        return f"{'(['[not self.lo_open]}{self.lo}, {self.hi}{')]'[not self.hi_open]}"


Beta1 = Annotated[float, Range(0.0, 1.0)]
Beta2 = Annotated[float, Range(0.0, 1.0, lo_open=True)]
Positive = Annotated[float, Range(0.0, lo_open=True)]
NonNegative = Annotated[float, Range(0.0)]
Count = Annotated[int, Range(0, 2**63)]  # fits an int64 column, converts to a float
Size = Annotated[int, Range(1, 2**63)]  # a Count of at least one
Fraction = Annotated[float, Range(0.0, 1.0, lo_open=True, hi_open=False)]
Seed = Annotated[int, Range(0, 2**64)]  # a uint64 stream key
# a number whose square is a positive normal float: LowerBound divides by L1 * L1
SquarePositive = Annotated[float, Range(math.sqrt(sys.float_info.min))]
# a positive number whose cube is finite: theory.compute_constants takes
# eta1 ** 3, and a float ** raises OverflowError where a product rounds to
# inf. The bound lies a little below the cube root of the largest float.
CubeFinite = Annotated[float, Range(0.0, sys.float_info.max ** (1 / 3), lo_open=True)]


@dataclasses.dataclass(frozen=True)
class _Distinct:
    """Non-empty lists in which no value equals an earlier one (by ``==``)."""

    def __contains__(self, values: list) -> bool:
        return bool(values) and not any(v in values[:i] for i, v in enumerate(values))

    def __str__(self) -> str:
        return "a non-empty list with no repeated value"


def Axis(item):
    """A run axis: a list of ``item`` values, none equal to an earlier one (2
    and 2.0 are one value), which would run again, and not empty, on which an
    experiment would run nothing and pass. ``Axis(X) == Axis(X)``."""
    return Annotated[list[item], _Distinct()]


@functools.cache
def fields_of(owner) -> dict[str, tuple[object, bool]]:
    """name -> (type hint, required) for each parameter of a function or field
    of a dataclass, ranges included."""
    hints = typing.get_type_hints(owner, include_extras=True)
    return {name: (hints[name], p.default is p.empty) for name, p in inspect.signature(owner).parameters.items()}


def check(owner, **values) -> None:
    """Check each value against ``owner``'s type hint of the same name: a
    field of a dataclass or a parameter of a function."""
    spec = fields_of(owner)
    for name, value in values.items():
        parse(spec[name][0], value, name)


def parse(hint, value, path: str = ""):
    """``value`` checked against ``hint``; a dataclass or function hint is
    built or called from a dict, and a ValueError it raises gets its path."""
    expected = "an object"
    if (dataclasses.is_dataclass(hint) or inspect.isfunction(hint)) and isinstance(value, dict):
        spec, prefix = fields_of(hint), f"{path}." if path else ""
        for key in value:
            if key not in spec:
                raise ValueError(f"{prefix}{key}: unknown key")
        for key, (_, required) in spec.items():
            if required and key not in value:
                raise ValueError(f"{prefix}{key}: missing")
        kwargs = {k: parse(spec[k][0], v, prefix + k) for k, v in value.items()}
        try:
            return hint(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{prefix}{exc}") from exc
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        [inner] = [a for a in args if a is not type(None)]
        return None if value is None else parse(inner, value, path)
    if origin is Annotated:
        base, allowed = args
        if parse(base, value, path) in allowed:
            return value
        expected = f"{_SCALARS[base][0]} in {allowed}" if isinstance(allowed, Range) else str(allowed)
    elif origin is list:
        if isinstance(value, list):
            return [parse(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        expected = "a list"
    elif origin is Literal:
        if any(type(value) is type(a) and value == a for a in args):
            return value
        expected = "one of " + ", ".join(map(repr, args))
    elif hint in _SCALARS:
        expected, types = _SCALARS[hint]
        if isinstance(value, types) and (hint is bool or not isinstance(value, bool)):
            if hint is not float or abs(value) <= sys.float_info.max:  # NaN fails too
                return value
            expected = "a finite number"
    raise ValueError(f"{path}: expected {expected}, got {value!r}")
