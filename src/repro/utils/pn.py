"""Pseudo-noise (PN) sequence generation.

Two parts of the paper rely on pseudo-random bit sequences:

* the 64-bit pilot attached to both ends of every frame (§7.2), which all
  nodes must be able to regenerate deterministically, and
* the whitening scrambler (§6.2) that XORs the payload with a PN sequence
  so the "random bit pattern" assumption behind the amplitude estimator
  (``E[cos(theta - phi)] = 0``) holds even for structured payloads.

Both are served by a maximal-length LFSR implemented here.  A generator's
output is a pure function of its seed, taps and width, so each distinct
generator's output stream is computed once, kept in a small bounded memo
and served as slices: whitening a payload or regenerating the pilot costs
one array copy rather than one Python-level register step per bit.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Default LFSR feedback taps (1-indexed bit positions from the output end
#: of the right-shifting register).  Positions (1, 3, 4, 6) realise the
#: maximal-length polynomial x^16 + x^14 + x^13 + x^11 + 1 under this shift
#: convention — period 65535 bits.
DEFAULT_TAPS = (1, 3, 4, 6)
DEFAULT_REGISTER_BITS = 16

#: Most output streams kept in memory at once, one per distinct
#: ``(seed, taps, register_bits)``.  The least recently used one is dropped
#: beyond this and recomputed if it is asked for again.
STREAM_CACHE_SIZE = 32

_StreamKey = Tuple[int, Tuple[int, ...], int]
#: Per key: the output bits computed so far and the register state after them.
_streams: Dict[_StreamKey, Tuple[np.ndarray, int]] = {}
_streams_lock = threading.Lock()


def _step(state: int, taps: Tuple[int, ...], width: int) -> Tuple[int, int]:
    """One register step: the output bit and the next state."""
    feedback = 0
    for tap in taps:
        feedback ^= (state >> (tap - 1)) & 1
    return state & 1, (state >> 1) | (feedback << (width - 1))


def _stream(key: _StreamKey, length: int) -> np.ndarray:
    """The first ``length`` (or more) output bits of the generator ``key`` names.

    A short stream is extended bit-serially to at least twice its length,
    so a generator read in ever longer pieces is stepped O(total) times.
    """
    seed, taps, width = key
    with _streams_lock:
        stream, state = _streams.pop(key, (np.zeros(0, dtype=np.uint8), seed))
        if stream.size < length:
            extra = []
            for _ in range(max(length, 2 * stream.size) - stream.size):
                bit, state = _step(state, taps, width)
                extra.append(bit)
            stream = np.concatenate([stream, np.array(extra, dtype=np.uint8)])
            stream.flags.writeable = False
        if len(_streams) >= STREAM_CACHE_SIZE:
            del _streams[next(iter(_streams))]
        _streams[key] = (stream, state)
        return stream


class PNSequence:
    """Fibonacci LFSR pseudo-noise bit generator.

    Parameters
    ----------
    seed:
        Non-zero initial register state.  Two generators constructed with
        the same seed and taps produce identical output, which is what lets
        a receiver regenerate the transmitter's pilot and scrambler
        sequences without any side channel.
    taps:
        Feedback tap positions (1-indexed from the output bit).
    register_bits:
        Width of the shift register.
    """

    def __init__(
        self,
        seed: int,
        taps: tuple = DEFAULT_TAPS,
        register_bits: int = DEFAULT_REGISTER_BITS,
    ) -> None:
        if register_bits <= 0:
            raise ConfigurationError("register_bits must be positive")
        mask = (1 << register_bits) - 1
        state = seed & mask
        if state == 0:
            raise ConfigurationError("LFSR seed must be non-zero modulo the register width")
        if not taps:
            raise ConfigurationError("at least one feedback tap is required")
        if max(taps) > register_bits:
            raise ConfigurationError("tap positions cannot exceed the register width")
        self._register_bits = register_bits
        self._taps = tuple(sorted(set(int(t) for t in taps), reverse=True))
        self._initial_state = state
        self._state = state
        self._position = 0
        self._key: _StreamKey = (state, self._taps, register_bits)

    @property
    def state(self) -> int:
        """Current register contents."""
        return self._state

    def reset(self) -> None:
        """Restore the register to its seed state."""
        self._state = self._initial_state
        self._position = 0

    def next_bit(self) -> int:
        """Advance the register one step and return the output bit."""
        output, self._state = _step(self._state, self._taps, self._register_bits)
        self._position += 1
        return output

    def bits(self, length: int) -> np.ndarray:
        """Generate the next ``length`` bits as a canonical bit array."""
        if length < 0:
            raise ConfigurationError("length must be non-negative")
        start = self._position
        end = start + length
        stream = _stream(self._key, end + self._register_bits)
        # Register bit i is the output i steps ahead.
        window = stream[end : end + self._register_bits]
        self._state = int.from_bytes(np.packbits(window, bitorder="little").tobytes(), "little")
        self._position = end
        return stream[start:end].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PNSequence(seed={self._initial_state:#x}, taps={self._taps}, "
            f"register_bits={self._register_bits})"
        )


def pn_bits(length: int, seed: int, taps: tuple = DEFAULT_TAPS) -> np.ndarray:
    """Convenience wrapper: the first ``length`` bits of a fresh LFSR."""
    return PNSequence(seed=seed, taps=taps).bits(length)


def make_rng(seed: Optional[int]) -> np.random.Generator:
    """Create a numpy Generator, tolerating ``None`` for nondeterministic use."""
    return np.random.default_rng(seed)
