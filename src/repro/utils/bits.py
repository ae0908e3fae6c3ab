"""Bit-array helpers.

The library represents bit streams as ``numpy.ndarray`` of dtype ``uint8``
containing only 0s and 1s.  These helpers convert between that canonical
representation and integers, bytes and strings, and provide the small
amount of bit arithmetic (Hamming distance, random generation) that the
framing, coding and evaluation layers need.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import ensure_bit_array

BitsLike = Union[Iterable[int], np.ndarray, str]


def as_bit_array(bits: BitsLike) -> np.ndarray:
    """Coerce an iterable / string of 0s and 1s into the canonical bit array."""
    if isinstance(bits, str):
        return string_to_bits(bits)
    return ensure_bit_array(bits, "bit arrays")


def string_to_bits(text: str) -> np.ndarray:
    """Parse a string such as ``"1010"`` into a bit array."""
    stripped = text.strip()
    if stripped and not set(stripped) <= {"0", "1"}:
        raise ConfigurationError(f"not a binary string: {text!r}")
    return np.array([int(c) for c in stripped], dtype=np.uint8)


def bits_to_string(bits: BitsLike) -> str:
    """Render a bit array as a compact string of 0/1 characters."""
    return "".join(str(int(b)) for b in as_bit_array(bits))


def bits_from_int(value: int, width: int) -> np.ndarray:
    """Encode an unsigned integer as ``width`` bits, most-significant first."""
    if width <= 0:
        raise ConfigurationError("bit width must be positive")
    if value < 0:
        raise ConfigurationError("only unsigned integers can be encoded")
    if value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    octets = np.frombuffer(operator.index(value).to_bytes((width + 7) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(octets)[-width:]


def bits_to_int(bits: BitsLike) -> int:
    """Decode a most-significant-first bit array into an unsigned integer."""
    return _fold(as_bit_array(bits))


def _fold(bits: np.ndarray) -> int:
    """:func:`bits_to_int` of an already canonical bit array (not re-checked)."""
    value = 0
    for bit in bits.tolist():
        value = (value << 1) | bit
    return value


def bits_from_bytes(data: bytes) -> np.ndarray:
    """Expand a byte string into a bit array, most-significant bit first."""
    if len(data) == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: BitsLike) -> bytes:
    """Pack a bit array into bytes; the length must be a multiple of 8."""
    arr = as_bit_array(bits)
    if arr.size % 8 != 0:
        raise ConfigurationError("bit array length must be a multiple of 8 to pack into bytes")
    if arr.size == 0:
        return b""
    return np.packbits(arr).tobytes()


def random_bits(length: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Generate ``length`` uniformly random bits using ``rng`` (or a fresh one)."""
    if length < 0:
        raise ConfigurationError("length must be non-negative")
    generator = rng if rng is not None else np.random.default_rng()
    return generator.integers(0, 2, size=length, dtype=np.uint8)


def hamming_distance(a: BitsLike, b: BitsLike) -> int:
    """Number of positions at which two equal-length bit arrays differ."""
    return _hamming(as_bit_array(a), as_bit_array(b))


def _hamming(arr_a: np.ndarray, arr_b: np.ndarray) -> int:
    """:func:`hamming_distance` of two already canonical bit arrays."""
    if arr_a.size != arr_b.size:
        raise ConfigurationError(
            f"bit arrays must have equal length (got {arr_a.size} and {arr_b.size})"
        )
    return int(np.count_nonzero(arr_a != arr_b))


def bit_error_rate(reference: BitsLike, received: BitsLike) -> float:
    """Fraction of differing bits between two equal-length bit arrays."""
    arr = as_bit_array(reference)
    if arr.size == 0:
        return 0.0
    return _hamming(arr, as_bit_array(received)) / float(arr.size)
