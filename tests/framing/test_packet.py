"""Tests for the Packet representation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.framing.packet import Packet


class TestPacket:
    def test_construction(self):
        packet = Packet(1, 2, 3, [1, 0, 1])
        assert packet.identity == (1, 2, 3)
        assert packet.payload_length == 3

    def test_payload_immutable(self):
        packet = Packet(1, 2, 3, [1, 0])
        with pytest.raises(ValueError):
            packet.payload[0] = 0

    def test_source_array_is_not_aliased(self):
        source = np.array([1, 0, 1], dtype=np.uint8)
        packet = Packet(1, 2, 3, source)
        source[:] = 0
        assert packet.payload.tolist() == [1, 0, 1]
        assert not np.shares_memory(packet.payload, source)

    def test_negative_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            Packet(-1, 2, 3, [1])

    def test_random_payload_length(self):
        packet = Packet.random(1, 2, 0, 256, np.random.default_rng(0))
        assert packet.payload_length == 256

    def test_random_is_deterministic_with_seed(self):
        a = Packet.random(1, 2, 0, 64, np.random.default_rng(9))
        b = Packet.random(1, 2, 0, 64, np.random.default_rng(9))
        assert a.payload_equals(b)

    def test_hash_uses_identity(self):
        a = Packet(1, 2, 3, [1, 1])
        b = Packet(1, 2, 3, [0, 0])
        assert hash(a) == hash(b)

    def test_payload_equals(self):
        a = Packet(1, 2, 3, [1, 0, 1])
        b = Packet(9, 9, 9, [1, 0, 1])
        assert a.payload_equals(b)
        assert not a.payload_equals(Packet(1, 2, 3, [1, 1, 1]))

    def test_xor_payload(self):
        a = Packet(1, 2, 0, [1, 1, 0, 0])
        b = Packet(2, 1, 0, [1, 0, 1, 0])
        assert np.array_equal(a.xor_payload(b), [0, 1, 1, 0])

    def test_xor_self_is_zero(self):
        a = Packet(1, 2, 0, [1, 0, 1])
        assert not np.any(a.xor_payload(a))

    def test_xor_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            Packet(1, 2, 0, [1, 0]).xor_payload(Packet(2, 1, 0, [1]))

    def test_non_binary_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            Packet(1, 2, 3, [0, 2])
