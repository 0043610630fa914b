"""Exception types shared across the package, and the field-type check.

The CLI maps these onto stable exit codes: FormatError -> 2,
NumericalError (and subclasses) -> 3.
"""

import dataclasses
import math
import numbers


class FormatError(ValueError):
    """A data file does not conform to the expected text format."""


class NumericalError(ArithmeticError):
    """A numerical routine failed (SVD non-convergence, degenerate input)."""


class DegenerateMatrixError(NumericalError):
    """A matrix is unusable for the requested operation (e.g. zero spectral radius)."""


class TrainingError(NumericalError):
    """Autoencoder training could not produce a usable network."""


def _is_int(v: object) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and -(2**63) <= v < 2**63


def _is_float(v: object) -> bool:
    if isinstance(v, numbers.Integral):
        return _is_int(v)
    return isinstance(v, numbers.Real) and math.isfinite(v)


# Annotation (a string, under ``from __future__ import annotations``) -> (check, message).
_FIELD_TYPES = {
    "int": (_is_int, "an integer in the signed 64-bit range"),
    "float": (_is_float, "a finite number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def check_field_types(obj: object) -> None:
    """Raise ValueError for a dataclass field whose value its annotation refuses.

    Fields annotated ``int``, ``float``, ``bool`` or ``str`` are checked (a
    bool is neither an int nor a float); other fields are left to the class.
    An accepted number such as a numpy scalar is stored as the equal int or float.
    """
    for field in dataclasses.fields(obj):
        if field.type in _FIELD_TYPES:
            ok, expected = _FIELD_TYPES[field.type]
            value = getattr(obj, field.name)
            if not ok(value):
                raise ValueError(f"{field.name} must be {expected}, got {value!r}")
            if field.type in ("int", "float") and type(value) not in (int, float):
                value = int(value) if _is_int(value) else float(value)
                object.__setattr__(obj, field.name, value)
