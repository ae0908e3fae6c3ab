"""Sliding-window statistics over sample streams.

The packet detector and the interference detector of §7.1 both operate on
moving windows of received complex samples: the former thresholds the
windowed energy, the latter thresholds the windowed *variance* of the
energy.  The helpers here compute those windowed statistics vectorised.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


def _validate_window(window: int, n: int) -> None:
    if window <= 0:
        raise ConfigurationError("window length must be positive")
    if n == 0:
        raise ConfigurationError("cannot compute windowed statistics of an empty array")


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average with a ramp-up at the start.

    ``result[i]`` is the mean of ``values[max(0, i - window + 1) : i + 1]``,
    so the output has the same length as the input and early entries
    average over fewer samples rather than being dropped.
    """
    arr = np.asarray(values, dtype=float)
    _validate_window(window, arr.size)
    cumulative = np.cumsum(np.concatenate(([0.0], arr.ravel())))
    idx = np.arange(1, arr.size + 1)
    start = np.maximum(idx - window, 0)
    counts = idx - start
    return (cumulative[idx] - cumulative[start]) / counts


def moving_energy(samples: np.ndarray, window: int) -> np.ndarray:
    """Moving average of ``|samples|^2`` (the windowed signal energy)."""
    arr = np.asarray(samples)
    _validate_window(window, arr.size)
    return moving_average(np.abs(arr) ** 2, window)


def moving_variance(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving variance (population variance within each window)."""
    arr = np.asarray(values, dtype=float)
    _validate_window(window, arr.size)
    mean = moving_average(arr, window)
    mean_sq = moving_average(arr ** 2, window)
    variance = mean_sq - mean ** 2
    # Numerical noise can push the variance a hair below zero.
    return np.maximum(variance, 0.0)
