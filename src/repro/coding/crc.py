"""Cyclic redundancy checks over bit arrays.

CRCs are used by the framing layer to validate decoded headers (so the
router and the destinations can trust the SrcID/DstID/SeqNo fields they
read out of an interfered signal, §7.3/§7.5) and to detect residual errors
in decoded payloads when computing packet delivery statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import CRCError, ConfigurationError
from repro.utils.bits import _fold, as_bit_array, bits_from_int


@dataclass(frozen=True)
class CRCSpec:
    """Parameters of a CRC: width, generator polynomial and initial value."""

    width: int
    polynomial: int
    initial: int
    name: str

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError("CRC width must be positive")
        if self.polynomial <= 0:
            raise ConfigurationError("CRC polynomial must be positive")


class _BitwiseCRC:
    """MSB-first, non-reflected CRC engine over bit arrays.

    Whole bytes go through a 256-entry table, one lookup per byte; only
    the final ``len % 8`` bits are shifted in one at a time.  The register
    is kept left-aligned to at least 8 bits so the same table step serves
    widths below 8.
    """

    def __init__(self, spec: CRCSpec) -> None:
        self.spec = spec
        self._mask = (1 << spec.width) - 1
        self._align = max(8 - spec.width, 0)
        width = spec.width + self._align
        self._aligned_mask = (1 << width) - 1
        self._aligned_poly = (spec.polynomial & self._mask) << self._align
        self._top_shift = width - 1
        self._byte_shift = width - 8
        self._table = [self._shift_in(byte << self._byte_shift, 0, 8) for byte in range(256)]

    def _shift_in(self, register: int, value: int, count: int) -> int:
        """Shift the ``count`` bits of ``value`` (MSB first) into the aligned register."""
        for i in range(count - 1, -1, -1):
            incoming = ((value >> i) & 1) ^ (register >> self._top_shift)
            register = (register << 1) & self._aligned_mask
            if incoming:
                register ^= self._aligned_poly
        return register

    def compute(self, bits) -> int:
        """CRC register value after shifting in all data bits."""
        data = as_bit_array(bits)
        whole = data.size - data.size % 8
        register = (self.spec.initial & self._mask) << self._align
        table, mask, shift = self._table, self._aligned_mask, self._byte_shift
        for byte in np.packbits(data[:whole]).tolist():
            register = ((register << 8) & mask) ^ table[(register >> shift) ^ byte]
        for bit in data[whole:].tolist():
            register = self._shift_in(register, bit, 1)
        return register >> self._align

    def compute_bits(self, bits) -> np.ndarray:
        """CRC value rendered as a bit array of the CRC's width."""
        return bits_from_int(self.compute(bits), self.spec.width)

    def append(self, bits) -> np.ndarray:
        """Return ``bits`` with the CRC appended."""
        data = as_bit_array(bits)
        return np.concatenate([data, self.compute_bits(data)])

    def verify(self, bits_with_crc) -> bool:
        """Check a bit array whose last ``width`` bits are the CRC."""
        return self._verify(as_bit_array(bits_with_crc))

    def _verify(self, data: np.ndarray) -> bool:
        """:meth:`verify` of an already canonical bit array."""
        if data.size < self.spec.width:
            return False
        received = _fold(data[-self.spec.width :])
        return self.compute(data[: -self.spec.width]) == received

    def strip(self, bits_with_crc) -> np.ndarray:
        """Verify and remove the trailing CRC, raising :class:`CRCError` on failure."""
        data = as_bit_array(bits_with_crc)
        if not self._verify(data):
            raise CRCError(f"{self.spec.name} check failed")
        return data[: -self.spec.width]


#: CRC-16/CCITT-FALSE: polynomial 0x1021, initial value 0xFFFF.
CRC16 = _BitwiseCRC(CRCSpec(width=16, polynomial=0x1021, initial=0xFFFF, name="CRC-16/CCITT"))

#: CRC-32/MPEG-2: polynomial 0x04C11DB7, not reflected, initial value
#: 0xFFFFFFFF, no final XOR.
CRC32 = _BitwiseCRC(CRCSpec(width=32, polynomial=0x04C11DB7, initial=0xFFFFFFFF, name="CRC-32"))


def append_crc(bits, crc: _BitwiseCRC = CRC16) -> np.ndarray:
    """Append a CRC to a bit array (default CRC-16)."""
    return crc.append(bits)


def check_and_strip_crc(bits, crc: _BitwiseCRC = CRC16) -> Tuple[np.ndarray, bool]:
    """Return ``(payload, ok)`` where ``ok`` indicates whether the CRC matched.

    Unlike :meth:`_BitwiseCRC.strip` this never raises, which is the shape
    the packet-delivery accounting wants: a failed CRC is a lost packet,
    not an exception.
    """
    data = as_bit_array(bits)
    if data.size < crc.spec.width:
        return data, False
    return data[: -crc.spec.width], crc._verify(data)
