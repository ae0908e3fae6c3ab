"""Carrier frequency offset: the per-sender oscillator phase ramp.

Two physically separate radios never share an oscillator, so a residual
carrier frequency offset (CFO) of Δf between a transmitter and a receiver
rotates every received sample by an extra ``2πΔf`` per sample interval —
a linear phase ramp on top of the constant path phase.  §6 of the paper
*exploits* exactly this imperfection: the relative CFO between the two
unsynchronised senders makes their phase difference sweep the whole
circle during one packet, which is what lets the router separate the two
amplitudes from the energy statistics (Eqs. 5–6) and what keeps the
phase-matching step (Eqs. 7–8) well conditioned.

:class:`CarrierFrequencyOffsetChannel` models one oscillator pair's ramp
as a composable :class:`~repro.channel.model.Channel` stage.  The
impairment subsystem (:mod:`repro.channel.impairments`) attaches one such
stage per *sender*, so every link out of a radio sees the same oscillator
— distinct from the per-path ``Link.frequency_offset`` the topology
factories have always drawn, which models the receiver-side mixing of one
specific pair.
"""

from __future__ import annotations

import numpy as np

from repro.channel.model import Channel
from repro.signal.samples import ComplexSignal


class CarrierFrequencyOffsetChannel(Channel):
    """Rotate a signal by a linear phase ramp ``exp(i(φ0 + Δω·n))``.

    Parameters
    ----------
    frequency_offset:
        Residual carrier frequency offset ``Δω`` in radians per sample
        (``2πΔf·T_s`` for a physical offset of ``Δf`` Hz at sample
        interval ``T_s``).  May be negative: the sign encodes which
        oscillator runs fast.
    initial_phase:
        Phase ``φ0`` of the ramp at the first sample, in radians.  Two
        slots transmitted by the same radio can be made phase-continuous
        by advancing this by ``Δω·n_samples`` between slots.
    """

    def __init__(self, frequency_offset: float, initial_phase: float = 0.0) -> None:
        """See the class docstring for the parameter semantics."""
        self.frequency_offset = float(frequency_offset)
        self.initial_phase = float(initial_phase)

    def ramp(self, n_samples: int) -> np.ndarray:
        """The complex rotation ``exp(i(φ0 + Δω·n))`` for ``n_samples`` samples."""
        index = np.arange(int(n_samples))
        return np.exp(1j * (self.initial_phase + self.frequency_offset * index))

    def apply(self, signal: ComplexSignal) -> ComplexSignal:
        """Rotate every sample of the signal along the oscillator ramp."""
        if signal.samples.size == 0 or (
            self.frequency_offset == 0.0 and self.initial_phase == 0.0
        ):
            return signal
        return ComplexSignal(signal.samples * self.ramp(signal.samples.size))

    def advanced(self, n_samples: int) -> "CarrierFrequencyOffsetChannel":
        """The same oscillator, ``n_samples`` later (phase-continuous ramp)."""
        return CarrierFrequencyOffsetChannel(
            self.frequency_offset,
            self.initial_phase + self.frequency_offset * int(n_samples),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debug rendering with both ramp parameters."""
        return (
            f"CarrierFrequencyOffsetChannel(frequency_offset={self.frequency_offset!r}, "
            f"initial_phase={self.initial_phase!r})"
        )
