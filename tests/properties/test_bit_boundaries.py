"""Every public bit entry point of the framing path still checks its input.

The framing helpers validate an argument once and then work on the
canonical array through private helpers; this pins that no public entry
point lost its own check on the way.
"""

import numpy as np
import pytest

from repro.coding.crc import CRC16, check_and_strip_crc
from repro.exceptions import ConfigurationError
from repro.framing.frame import Deframer
from repro.framing.header import Header
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.scrambler.whitening import Scrambler
from repro.utils.bits import bit_error_rate, bits_to_int, hamming_distance

GOOD = np.array([1, 0, 1], dtype=np.uint8)

ENTRY_POINTS = {
    "bits_to_int": bits_to_int,
    "hamming_distance[a]": lambda bits: hamming_distance(bits, GOOD),
    "hamming_distance[b]": lambda bits: hamming_distance(GOOD, bits),
    "bit_error_rate[reference]": lambda bits: bit_error_rate(bits, GOOD),
    "bit_error_rate[received]": lambda bits: bit_error_rate(GOOD, bits),
    "CRC16.compute": CRC16.compute,
    "CRC16.append": CRC16.append,
    "CRC16.verify": CRC16.verify,
    "CRC16.strip": CRC16.strip,
    "check_and_strip_crc": check_and_strip_crc,
    "Header.from_bits": Header.from_bits,
    "Deframer.parse": Deframer().parse,
    "Deframer.parse_header": Deframer().parse_header,
    "Deframer.parse_backward": Deframer().parse_backward,
    "Deframer.extract_payload_region": Deframer().extract_payload_region,
    "Scrambler.scramble": Scrambler().scramble,
    "MSKModulator.modulate": MSKModulator().modulate,
    "Packet": lambda bits: Packet(1, 2, 3, bits),
}

BAD_INPUTS = {
    "non-bit-int": [0, 1, 2],
    "fraction": [0.5, 1.0],
    "two-dimensional": np.zeros((2, 3), dtype=np.uint8),
}


@pytest.mark.parametrize("bad", list(BAD_INPUTS.values()), ids=list(BAD_INPUTS))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_entry_point_rejects_non_bits(entry, bad):
    with pytest.raises(ConfigurationError):
        entry(bad)
