"""Exception types shared across the simulator, and the input checks that raise them."""

from __future__ import annotations

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
    dataclass field is checked here before its range is.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{owner} {name} must be a finite number, got {value!r}")


def integer(raw: object) -> int:
    """Convert an integer field, rejecting booleans and non-integral numbers.

    Bare ``int`` would load ``2.9`` as 2 and ``true`` as 1.
    """
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def number(raw: object) -> float:
    """Convert a real-number field, rejecting booleans; bare ``float`` would load ``true`` as 1.0."""
    if isinstance(raw, bool):
        raise ValueError(f"expected a number, got {raw!r}")
    return float(raw)


def json_object(raw: object) -> dict:
    """Check an object field; bare ``dict`` would load ``[["a", 1]]`` as ``{"a": 1}``."""
    if not isinstance(raw, dict):
        raise ValueError(f"expected an object, got {type(raw).__name__}")
    return raw


def json_array(raw: object) -> list:
    """Check an array field; bare ``list`` would load ``{"a": 1}`` as ``["a"]``."""
    if not isinstance(raw, list):
        raise ValueError(f"expected an array, got {type(raw).__name__}")
    return raw


def read_section(where: str, doc: object, kinds: dict[str, Callable], required: Iterable[str] = ()) -> dict:
    """Convert the fields of one object in an input document.

    ``kinds`` maps every allowed key to its converter.  An unknown key is
    rejected rather than ignored, so a misspelt field cannot silently fall
    back to its default; a missing ``required`` key or a bad value is named by
    path.  An ``int`` field is converted by :func:`integer`, a ``float``
    field by :func:`number`, and a ``dict`` or ``list`` field is checked by
    :func:`json_object` or :func:`json_array`.
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
            convert = {int: integer, float: number, dict: json_object,
                       list: json_array}.get(kinds[key], kinds[key])
            fields[key] = convert(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{where}.{key}: {exc}") from None
    return fields
