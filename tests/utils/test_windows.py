"""Tests for sliding-window statistics."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.windows import moving_average, moving_energy, moving_variance


class TestMovingAverage:
    def test_constant_input(self):
        out = moving_average(np.full(10, 3.0), window=4)
        assert out == pytest.approx(np.full(10, 3.0))

    def test_output_length_matches_input(self):
        assert moving_average(np.arange(17, dtype=float), 5).size == 17

    def test_ramp_up_uses_partial_windows(self):
        out = moving_average(np.array([2.0, 4.0, 6.0]), window=2)
        assert out == pytest.approx([2.0, 3.0, 5.0])

    def test_window_larger_than_input(self):
        values = np.array([1.0, 2.0, 3.0])
        out = moving_average(values, window=10)
        assert out[-1] == pytest.approx(2.0)
        np.testing.assert_array_equal(out, self._insert_reference(values, 10))

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.ones(4), 0)

    @staticmethod
    def _insert_reference(values, window):
        """The ``np.insert``-based cumsum the implementation used to build."""
        arr = np.asarray(values, dtype=float)
        cumulative = np.cumsum(np.insert(arr, 0, 0.0))
        idx = np.arange(1, arr.size + 1)
        start = np.maximum(idx - window, 0)
        return (cumulative[idx] - cumulative[start]) / (idx - start)

    def test_two_dimensional_input_is_flattened(self):
        values = np.arange(12, dtype=float).reshape(3, 4) ** 1.5
        out = moving_average(values, window=5)
        assert out.shape == (12,)
        np.testing.assert_array_equal(out, self._insert_reference(values, 5))

    def test_negative_zero_entry(self):
        values = np.array([-0.0, 1.25, -0.0, 3.5, -2.0])
        out = moving_average(values, window=2)
        reference = self._insert_reference(values, 2)
        np.testing.assert_array_equal(out, reference)
        assert np.signbit(out).tolist() == np.signbit(reference).tolist()

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.array([]), 3)


class TestMovingEnergy:
    def test_constant_envelope_signal(self):
        samples = 2.0 * np.exp(1j * np.linspace(0, 10, 50))
        out = moving_energy(samples, window=8)
        assert out == pytest.approx(np.full(50, 4.0))

    def test_energy_step_detected(self):
        samples = np.concatenate([np.zeros(20), np.ones(20)]).astype(complex)
        out = moving_energy(samples, window=4)
        assert out[10] == pytest.approx(0.0)
        assert out[-1] == pytest.approx(1.0)


class TestMovingVariance:
    def test_constant_input_zero_variance(self):
        out = moving_variance(np.full(30, 5.0), window=6)
        assert np.all(out <= 1e-12)

    def test_alternating_input_positive_variance(self):
        values = np.tile([0.0, 2.0], 20)
        out = moving_variance(values, window=8)
        assert out[-1] == pytest.approx(1.0)

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        out = moving_variance(rng.normal(size=200), window=16)
        assert np.all(out >= 0)

