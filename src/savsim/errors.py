"""Exception types shared across the simulator, and the input checks that raise them."""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterable


class SimulationError(Exception):
    """Base class for all simulator errors."""


class InvalidInputError(SimulationError, ValueError):
    """An argument or input record violates a documented precondition."""


class NotFoundError(SimulationError, LookupError):
    """A referenced entity (vertex, edge, stop, request) does not exist."""


class ConfigurationError(SimulationError):
    """A scenario or network file is malformed or fails validation."""


class ConsistencyError(SimulationError):
    """Internal state violated an invariant; indicates a simulator bug."""


def check_finite(owner: str, **values: float) -> None:
    """Raise InvalidInputError naming the first value that is not a finite number.

    Range checks such as ``rate < 0`` let NaN through, and a NaN or infinite
    rate or horizon makes event generation loop forever, so every numeric
    dataclass field is checked here before its range is.  An int of any size
    is finite; ``math.isfinite`` overflows on one too large for a float.
    """
    for name, value in values.items():
        if not isinstance(value, int) and not math.isfinite(value):
            raise InvalidInputError(f"{owner} {name} must be a finite number, got {value!r}")


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", dict: "an object", list: "an array"}


def json_value(kind: type, raw: object):
    """Return a field's value if its JSON type is ``kind``: int, float, str, dict or list.

    The value is returned as ``kind``: an integral float counts as an
    integer and an int as a number.  A boolean is never accepted, and
    nothing is coerced: bare ``int`` would load ``2.9`` as 2, ``true`` as 1
    and ``"4"`` as 4, ``str`` would load ``[1, 2]`` as ``"[1, 2]"``, and
    ``dict`` would load ``[["a", 1]]`` as ``{"a": 1}``.
    """
    if kind is int:
        ok = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    elif kind is float:
        ok = isinstance(raw, (int, float))
    else:
        ok = isinstance(raw, kind)
    if not ok or isinstance(raw, bool):
        got = type(raw).__name__ if isinstance(raw, (dict, list)) else repr(raw)
        raise ValueError(f"expected {_JSON_KINDS[kind]}, got {got}")
    return kind(raw)


_ANNOTATION_KINDS = {"int": int, "float": float, "str": str}


def record_kinds(cls: type, skip: Iterable[str] = (), **special: Callable) -> dict[str, Callable]:
    """``{field: kind}`` for :func:`read_section`, read from a dataclass's field annotations.

    Annotations are read by name (``from __future__ import annotations`` makes
    them strings): ``int``, ``float`` and ``str``.  A field in ``skip`` is left
    out and one in ``special`` takes that converter; any other annotation is a
    TypeError, raised when the module declaring the reader is imported.
    """
    kinds = {f.name: special.get(f.name) or _ANNOTATION_KINDS.get(getattr(f.type, "__name__", f.type))
             for f in dataclasses.fields(cls) if f.name not in skip}
    for name, kind in kinds.items():
        if kind is None:
            raise TypeError(f"{cls.__name__}.{name}: no JSON kind for its annotation")
    return kinds


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def record_dict(record: object, skip: Iterable[str] = ()) -> dict:
    """A dataclass record's fields but ``skip``; shallow, where ``dataclasses.asdict`` deep-copies each value.

    Each record class's field names are read once.
    """
    return {name: getattr(record, name) for name in _field_names(type(record)) if name not in skip}


def read_section(where: str, doc: object, kinds: dict[str, Callable], required: Iterable[str] = ()) -> dict:
    """Convert the fields of one object in an input document.

    ``kinds`` maps every allowed key to its converter.  An unknown key is
    rejected rather than ignored, so a misspelt field cannot silently fall
    back to its default; a missing ``required`` key or a bad value is named by
    path.  A field whose kind is a JSON type is checked by :func:`json_value`;
    any other kind is a converter called on the raw value.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise ConfigurationError(f"{where}.{key}: missing required field")
    fields = {}
    for key, raw in doc.items():
        if key not in kinds:
            raise ConfigurationError(f"{where}.{key}: no such field")
        try:
            kind = kinds[key]
            fields[key] = json_value(kind, raw) if kind in _JSON_KINDS else kind(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{where}.{key}: {exc}") from None
    return fields
