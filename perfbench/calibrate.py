"""The calibration kernel: fixed work that measures how fast the machine runs now.

The reference machine is a VM on a shared host, and its speed shifts by up
to about 2x for minutes at a time, so raw pass times of the same code
spread past any useful bound from one run to the next.  ``pass_cost``
divides each pass's wall time by the time of this kernel, timed right
before and right after the pass in the same process: a shift that slows
both cancels out.

The kernel never calls the library, so a change to the library moves
``pass_cost`` and leaves the kernel alone.  Its mix follows the library's
hot paths: bit-serial pure-Python loops (a shift-register sequence and a
bitwise CRC, as in framing) and short numpy calls on complex sample arrays
(as in the PHY).  Changing the kernel re-bases every ``pass_cost``, so
re-record ``BASELINE.md`` if you do; ``CHECKSUM`` guards against changing
it by accident.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: What :func:`kernel` returns; a self-test checks it.
CHECKSUM = 1294335
#: Kernel runs per timing; the timing is their median.
REPEATS = 3

_SAMPLES = np.exp(1j * np.random.default_rng(12345).uniform(-np.pi, np.pi, 4096))
_MESSAGE = bytes(range(256)) * 2


def _shift_register(length: int, state: int = 0x5A5) -> np.ndarray:
    """``length`` bits of an 11-bit Fibonacci shift register."""
    out = []
    for _ in range(length):
        bit = 0
        for tap in (11, 9):
            bit ^= (state >> (tap - 1)) & 1
        state = ((state << 1) | bit) & 0x7FF
        out.append(bit)
    return np.array(out, dtype=np.uint8)


def _crc16(bits) -> int:
    """Bitwise CRC-16/CCITT register over ``bits``."""
    register = 0xFFFF
    for bit in bits:
        top = (register >> 15) & 1
        register = (register << 1) & 0xFFFF
        if top ^ int(bit):
            register ^= 0x1021
    return register


def kernel() -> int:
    """One run of the fixed work; returns a checksum of its results."""
    total = 0
    for _ in range(16):
        total += _crc16(_shift_register(2048))
    total += _crc16(_MESSAGE)
    samples = _SAMPLES
    for _ in range(120):
        phase = np.angle(samples[1:] * np.conj(samples[:-1]))
        total += int((phase > 0).sum())
        samples = samples * np.exp(1j * 0.01)
    return total


def kernel_s() -> float:
    """Median wall time of :data:`REPEATS` kernel runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
