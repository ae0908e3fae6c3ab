"""Input validation helpers.

These keep the argument checking in library entry points short and the
resulting error messages consistent.  All of them raise
:class:`repro.exceptions.ConfigurationError` on invalid input.
"""

from __future__ import annotations

from numbers import Real
from typing import Iterable, Union

import numpy as np

from repro.exceptions import ConfigurationError


def ensure_positive(value: Real, name: str) -> float:
    """Require ``value > 0`` and return it as a float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return float(value)


def ensure_non_negative(value: Real, name: str) -> float:
    """Require ``value >= 0`` and return it as a float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return float(value)


def ensure_probability(value: Real, name: str) -> float:
    """Require ``0 <= value <= 1`` and return it as a float."""
    val = ensure_non_negative(value, name)
    if val > 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return val


def ensure_in_range(value: Real, low: float, high: float, name: str) -> float:
    """Require ``low <= value <= high`` and return it as a float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    if not (low <= value <= high):
        raise ConfigurationError(f"{name} must lie in [{low}, {high}], got {value}")
    return float(value)


def ensure_positive_int(value: int, name: str) -> int:
    """Require a strictly positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value}")
    return int(value)


def ensure_non_negative_int(value: int, name: str) -> int:
    """Require a non-negative integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return int(value)


def _require_bit_values(arr: np.ndarray, name: str) -> None:
    """Reject any element other than 0 or 1, checked before any cast."""
    if not arr.size:
        return
    if arr.dtype == np.uint8:
        ok = arr.max() <= 1
    else:
        ok = np.all((arr == 0) | (arr == 1))
    if not ok:
        raise ConfigurationError(f"{name} may only contain 0s and 1s")


def ensure_bit_array(bits: Union[Iterable[int], np.ndarray], name: str = "bits") -> np.ndarray:
    """Require an iterable of 0/1 values and return the canonical bit array.

    The values are checked on the input's own dtype, so ``256`` or ``0.7``
    is rejected rather than wrapped or truncated to a bit by the cast.  The
    result is always a new ``uint8`` array, never a view of the input.
    """
    arr = bits if isinstance(bits, np.ndarray) else np.asarray(list(bits))
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional")
    _require_bit_values(arr, name)
    return arr.astype(np.uint8)


def ensure_complex_array(samples, name: str = "samples") -> np.ndarray:
    """Require a one-dimensional array convertible to complex128."""
    arr = np.asarray(samples)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional")
    try:
        return arr.astype(np.complex128)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be convertible to complex values") from exc
