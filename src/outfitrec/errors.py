"""Exception types shared across the package, and the field-type check
that validates its dataclasses with them."""

import math
from numbers import Integral, Real
from typing import get_type_hints


class OutfitrecError(Exception):
    """Base of the package's own errors; the CLI reports any of them as one
    usage line. Each subclass also keeps a builtin base for callers that
    catch those."""


class DimensionError(OutfitrecError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(OutfitrecError, ValueError):
    """Input is outside the mathematical domain of the operation."""


class ConsistencyError(OutfitrecError, RuntimeError):
    """Internal state disagrees with what an operation requires."""


class DatasetError(OutfitrecError, ValueError):
    """Manifest, blob or question data violates the on-disk contract."""


class ConfigError(OutfitrecError, ValueError):
    """A training config, loss weight or model kind is out of range."""


class SyntheticSpecError(OutfitrecError, ValueError):
    """Synthetic generation parameters are infeasible."""


class UnseenTypePairError(OutfitrecError, KeyError):
    """No compatibility space was trained for this pair of item types."""

    __str__ = Exception.__str__   # KeyError's would quote the message


class MetricUndefinedError(OutfitrecError, RuntimeError):
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
