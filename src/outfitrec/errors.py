"""Exception types shared across the package, and the field-type check
that validates its dataclasses with them."""

import math
from numbers import Integral, Real
from typing import get_type_hints


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class ConsistencyError(RuntimeError):
    """Internal state disagrees with what an operation requires."""


class DatasetError(ValueError):
    """Manifest, blob or question data violates the on-disk contract."""


class SyntheticSpecError(ValueError):
    """Synthetic generation parameters are infeasible."""


class UnseenTypePairError(KeyError):
    """No compatibility space was trained for this pair of item types."""


class MetricUndefinedError(RuntimeError):
    """A requested metric has no defined value on the given inputs."""


def check_field_types(obj, error: type[Exception]) -> None:
    """Raise `error` unless every `int` field of the dataclass `obj` holds an
    integer (not a bool) and every `float` field a finite real number."""
    for name, kind in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if kind is int and (isinstance(value, bool)
                            or not isinstance(value, Integral)):
            raise error(f"{name} must be an integer, got {value!r}")
        if kind is float and (isinstance(value, bool)
                              or not isinstance(value, Real)
                              or not math.isfinite(value)):
            raise error(f"{name} must be a finite real number, got {value!r}")
