"""One type checker for config records, driven by dataclass fields.

An unknown key, a missing field without a default and a mistyped value are
errors. bool is neither an int nor a float; an int given for a float is kept
as an int, so a multiplier given as ``2`` is echoed as ``2``. A nested record
fills its missing fields from its defaults. Every error is a ValueError that
names the key's path, such as ``options.adam.beta1``.
"""

import dataclasses
import functools
import typing
from typing import Literal, Union

_SCALARS = {  # hint -> (description, accepted types); only bool accepts a bool
    float: ("a number", (int, float)), int: ("an integer", int), bool: ("true or false", bool),
    str: ("a string", str), dict: ("an object", dict),
}


@functools.cache
def fields_of(cls: type) -> dict[str, tuple[object, bool]]:
    """name -> (type hint, required) for each field of a dataclass."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def parse(hint, value, path: str = ""):
    """``value`` checked against ``hint``; a dataclass hint is built from a dict."""
    expected = "an object"
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        spec, prefix = fields_of(hint), f"{path}." if path else ""
        for key in value:
            if key not in spec:
                raise ValueError(f"{prefix}{key}: unknown key")
        for key, (_, required) in spec.items():
            if required and key not in value:
                raise ValueError(f"{prefix}{key}: missing")
        return hint(**{k: parse(spec[k][0], v, prefix + k) for k, v in value.items()})
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        [inner] = [a for a in args if a is not type(None)]
        return None if value is None else parse(inner, value, path)
    if origin is list:
        if isinstance(value, list):
            return [parse(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        expected = "a list"
    elif origin is Literal:
        if any(type(value) is type(a) and value == a for a in args):
            return value
        expected = "one of " + ", ".join(map(repr, args))
    elif not dataclasses.is_dataclass(hint):
        expected, types = _SCALARS[hint]
        if isinstance(value, types) and (hint is bool or not isinstance(value, bool)):
            return value
    raise ValueError(f"{path}: expected {expected}, got {value!r}")
