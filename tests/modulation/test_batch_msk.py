"""Tests for row-wise MSK demodulation of a 2D sample array."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.modulation.batch import BatchMSKDemodulator
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.signal.samples import ComplexSignal


def _bit_matrix(n_trials, n_bits, seed=0):
    return np.random.default_rng(seed).integers(0, 2, (n_trials, n_bits), dtype=np.uint8)


def _modulate_rows(bits, samples_per_symbol=1):
    modulator = MSKModulator(samples_per_symbol=samples_per_symbol)
    return np.stack([modulator.modulate(row).samples for row in bits])


class TestBatchDemodulator:
    @pytest.mark.parametrize("sps", [1, 3])
    def test_roundtrip_matches_scalar(self, sps):
        bits = _bit_matrix(5, 29, seed=3)
        signal = _modulate_rows(bits, samples_per_symbol=sps)
        demod = BatchMSKDemodulator(samples_per_symbol=sps)
        decoded = demod.demodulate(signal)
        assert np.array_equal(decoded, bits)
        scalar = MSKDemodulator(samples_per_symbol=sps)
        for i in range(5):
            row = ComplexSignal(signal[i])
            assert np.array_equal(decoded[i], scalar.demodulate(row))
            assert np.array_equal(
                demod.phase_differences(signal)[i],
                scalar.phase_differences(row),
            )

    def test_soft_decisions_are_phase_differences(self):
        bits = _bit_matrix(2, 8, seed=4)
        signal = _modulate_rows(bits)
        demod = BatchMSKDemodulator()
        assert np.array_equal(demod.soft_decisions(signal), demod.phase_differences(signal))

    def test_too_short_batch_has_no_bits(self):
        demod = BatchMSKDemodulator()
        assert demod.demodulate(np.zeros((3, 1), dtype=np.complex128)).shape == (3, 0)

    def test_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            BatchMSKDemodulator().demodulate(np.zeros(4, dtype=np.complex128))

    def test_properties(self):
        assert BatchMSKDemodulator(samples_per_symbol=2).samples_per_symbol == 2
