"""Complex-baseband signal substrate.

This package provides the sample-level building blocks the rest of the
library runs on: a :class:`ComplexSignal` container, energy / variance
detectors (the §7.1 packet and interference detectors), additive noise
generation, and sample-delay / superposition operations that model what
the wireless channel does to concurrent transmissions.
"""

from repro.signal.samples import ComplexSignal
from repro.signal.energy import (
    EnergyDetector,
    InterferenceDetector,
    average_power,
    energy_variance,
    peak_power,
)
from repro.signal.noise import awgn, complex_gaussian_noise, noise_power_for_snr
from repro.signal.ops import (
    add_signals,
    delay_signal,
    normalize_power,
    overlap_add,
    scale_to_power,
)

__all__ = [
    "ComplexSignal",
    "EnergyDetector",
    "InterferenceDetector",
    "add_signals",
    "average_power",
    "awgn",
    "complex_gaussian_noise",
    "delay_signal",
    "energy_variance",
    "noise_power_for_snr",
    "normalize_power",
    "overlap_add",
    "peak_power",
    "scale_to_power",
]
