"""Modulation and demodulation schemes.

The paper's prototype uses MSK (a form of continuous-phase / differential
phase-shift keying) because it has constant envelope, a trivially robust
differential demodulator, and is what GSM uses (§4).  The ANC decoding
algorithm itself only needs *some* phase-shift-keying scheme, so we also
provide BPSK and QPSK (the 802.11 modulations the paper mentions) with the
same interface, plus differential variants used for channel-insensitive
demodulation.
"""

from repro.modulation.base import Demodulator, Modulator, ModulationScheme
from repro.modulation.msk import MSKDemodulator, MSKModulator, MSKScheme
from repro.modulation.bpsk import BPSKDemodulator, BPSKModulator, BPSKScheme
from repro.modulation.qpsk import QPSKDemodulator, QPSKModulator, QPSKScheme
from repro.modulation.registry import available_schemes, get_scheme

__all__ = [
    "BPSKDemodulator",
    "BPSKModulator",
    "BPSKScheme",
    "Demodulator",
    "MSKDemodulator",
    "MSKModulator",
    "MSKScheme",
    "ModulationScheme",
    "Modulator",
    "QPSKDemodulator",
    "QPSKModulator",
    "QPSKScheme",
    "available_schemes",
    "get_scheme",
]
