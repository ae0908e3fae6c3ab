"""Differential MSK demodulation over a ``(n_trials, n_samples)`` array.

Row ``i`` of the output equals the scalar
:class:`~repro.modulation.msk.MSKDemodulator` applied to row ``i`` of the
input: the same conjugate product and ``np.angle`` per element.

No library code calls this class; it stays because the ``perfbench``
layer table (``perfbench/layers.py::targets``) wraps its ``demodulate``,
and only a benchmark change may edit ``perfbench/``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import ensure_positive_int


class BatchMSKDemodulator:
    """Differential MSK demodulation (Eq. 1) of every row of a 2D array."""

    def __init__(self, samples_per_symbol: int = 1) -> None:
        self._samples_per_symbol = ensure_positive_int(samples_per_symbol, "samples_per_symbol")

    @property
    def samples_per_symbol(self) -> int:
        """Oversampling factor shared by every row."""
        return self._samples_per_symbol

    def phase_differences(self, samples) -> np.ndarray:
        """Per-symbol wrapped phase differences of every row.

        Output shape ``(n_trials, n_symbols - 1)``; rows match the scalar
        demodulator's :meth:`~repro.modulation.msk.MSKDemodulator.phase_differences`.
        """
        arr = np.asarray(samples, dtype=np.complex128)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"samples must be a 2D (n_trials, n_samples) array, got ndim={arr.ndim}"
            )
        # Contiguous like the scalar path's input, so numpy takes the same
        # elementwise kernels and every row matches it bit for bit.
        symbols = np.ascontiguousarray(arr)[:, :: self._samples_per_symbol]
        if symbols.shape[1] < 2:
            return np.zeros((symbols.shape[0], 0), dtype=float)
        return np.angle(symbols[:, 1:] * np.conj(symbols[:, :-1]))

    def demodulate(self, samples) -> np.ndarray:
        """Decode one bit row per waveform; shape ``(n_trials, n_bits)``."""
        return (self.phase_differences(samples) >= 0).astype(np.uint8)

    def soft_decisions(self, samples) -> np.ndarray:
        """Raw phase differences of every row, as soft decision metrics."""
        return self.phase_differences(samples)
