"""Tests for bit-array helpers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.bits import (
    as_bit_array,
    bit_error_rate,
    bits_from_bytes,
    bits_from_int,
    bits_to_bytes,
    bits_to_int,
    bits_to_string,
    hamming_distance,
    random_bits,
    string_to_bits,
)


class TestConversion:
    def test_string_roundtrip(self):
        assert bits_to_string(string_to_bits("101101")) == "101101"

    def test_string_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            string_to_bits("10201")

    def test_int_roundtrip(self):
        assert bits_to_int(bits_from_int(173, 8)) == 173

    def test_int_width_is_respected(self):
        assert bits_from_int(5, 8).size == 8

    def test_int_msb_first(self):
        assert bits_to_string(bits_from_int(1, 4)) == "0001"
        assert bits_to_string(bits_from_int(8, 4)) == "1000"

    def test_int_too_large_raises(self):
        with pytest.raises(ConfigurationError):
            bits_from_int(16, 4)

    def test_negative_int_raises(self):
        with pytest.raises(ConfigurationError):
            bits_from_int(-1, 4)

    def test_bytes_roundtrip(self):
        data = b"\x00\xff\x5a"
        assert bits_to_bytes(bits_from_bytes(data)) == data

    def test_bytes_requires_multiple_of_eight(self):
        with pytest.raises(ConfigurationError):
            bits_to_bytes([1, 0, 1])

    def test_empty_bytes(self):
        assert bits_from_bytes(b"").size == 0
        assert bits_to_bytes([]) == b""

    def test_as_bit_array_rejects_twos(self):
        # Values are checked before the uint8 cast, which would wrap 256 to
        # 0 and truncate 0.7 to 0.
        for bad in ([0, 1, 2], [0, 256, 1], [257], [0.7, 1, 0], [-1, 0]):
            with pytest.raises(ConfigurationError):
                as_bit_array(bad)

    def test_as_bit_array_accepts_string(self):
        assert np.array_equal(as_bit_array("0110"), [0, 1, 1, 0])


class TestRandomBits:
    def test_length(self):
        assert random_bits(100, np.random.default_rng(0)).size == 100

    def test_deterministic_with_seed(self):
        a = random_bits(64, np.random.default_rng(5))
        b = random_bits(64, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_negative_length_raises(self):
        with pytest.raises(ConfigurationError):
            random_bits(-1)

    def test_values_are_binary(self):
        bits = random_bits(500, np.random.default_rng(1))
        assert set(np.unique(bits)) <= {0, 1}


class TestDistance:
    def test_hamming_distance_zero_for_identical(self):
        assert hamming_distance([1, 0, 1], [1, 0, 1]) == 0

    def test_hamming_distance_counts_flips(self):
        assert hamming_distance("1111", "1001") == 2

    def test_hamming_distance_requires_equal_length(self):
        with pytest.raises(ConfigurationError):
            hamming_distance([1, 0], [1, 0, 1])

    def test_bit_error_rate_fraction(self):
        assert bit_error_rate("1010", "1011") == pytest.approx(0.25)

    def test_bit_error_rate_empty_is_zero(self):
        assert bit_error_rate([], []) == 0.0
