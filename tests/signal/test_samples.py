"""Tests for the ComplexSignal container."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.signal.samples import ComplexSignal


class TestConstruction:
    def test_from_list(self):
        sig = ComplexSignal([1 + 1j, 2])
        assert len(sig) == 2

    def test_samples_are_immutable(self):
        sig = ComplexSignal([1 + 0j])
        with pytest.raises(ValueError):
            sig.samples[0] = 0

    @pytest.mark.parametrize(
        "source",
        [
            np.array([1 + 1j, 2 - 1j, -3j]),
            np.array([1 + 1j, 2 - 1j, -3j], dtype=np.complex64),
            np.array([1.0, -2.0, 0.5]),
        ],
        ids=["complex128", "complex64", "float64"],
    )
    def test_source_array_is_not_aliased(self, source):
        sig = ComplexSignal(source)
        expected = source.astype(np.complex128)
        source[:] = 0
        assert sig.samples.dtype == np.complex128
        assert np.array_equal(sig.samples, expected)
        assert not np.shares_memory(sig.samples, source)

    def test_empty(self):
        assert len(ComplexSignal.empty()) == 0

    def test_silence(self):
        sig = ComplexSignal.silence(10)
        assert len(sig) == 10
        assert sig.total_energy == 0.0

    def test_silence_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal.silence(-1)

    def test_from_polar(self):
        sig = ComplexSignal.from_polar(2.0, np.array([0.0, np.pi / 2]))
        assert sig.samples[0] == pytest.approx(2.0)
        assert sig.samples[1] == pytest.approx(2j)

    def test_from_polar_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal.from_polar(np.array([1.0, 2.0]), np.array([0.0]))

    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal(np.zeros((2, 2)))


class TestDerivedQuantities:
    def test_amplitude_and_phase(self):
        sig = ComplexSignal([3 * np.exp(1j * 0.5)])
        assert sig.amplitude[0] == pytest.approx(3.0)
        assert sig.phase[0] == pytest.approx(0.5)

    def test_energy(self):
        sig = ComplexSignal([2.0, 2j])
        assert sig.energy == pytest.approx([4.0, 4.0])
        assert sig.total_energy == pytest.approx(8.0)
        assert sig.average_power == pytest.approx(4.0)

    def test_average_power_of_empty_is_zero(self):
        assert ComplexSignal.empty().average_power == 0.0

    def test_phase_differences(self):
        phases = np.array([0.0, np.pi / 2, 0.0])
        sig = ComplexSignal.from_polar(1.0, phases)
        diffs = sig.phase_differences()
        assert diffs == pytest.approx([np.pi / 2, -np.pi / 2])

    def test_phase_differences_short_signal(self):
        assert ComplexSignal([1 + 0j]).phase_differences().size == 0


class TestStructuralOps:
    def test_slice(self):
        sig = ComplexSignal(np.arange(5, dtype=complex))
        assert np.array_equal(sig.slice(1, 3).samples, [1, 2])

    def test_concatenate(self):
        a = ComplexSignal([1 + 0j])
        b = ComplexSignal([2 + 0j, 3 + 0j])
        assert len(a.concatenate(b)) == 3

    def test_reversed(self):
        sig = ComplexSignal([1 + 0j, 2 + 0j])
        assert np.array_equal(sig.reversed().samples, [2, 1])

    def test_padded(self):
        sig = ComplexSignal([1 + 0j]).padded(2, 3)
        assert len(sig) == 6
        assert sig.samples[2] == 1

    def test_padded_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal([1 + 0j]).padded(-1, 0)

    def test_scaled(self):
        sig = ComplexSignal([1 + 0j]).scaled(2j)
        assert sig.samples[0] == pytest.approx(2j)

    def test_add_superposes(self):
        a = ComplexSignal([1 + 0j, 1 + 0j])
        b = ComplexSignal([0 + 1j, 1 + 0j])
        assert np.array_equal((a + b).samples, [1 + 1j, 2 + 0j])

    def test_add_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            ComplexSignal([1 + 0j]) + ComplexSignal([1 + 0j, 2 + 0j])

    def test_equality_and_isclose(self):
        a = ComplexSignal([1 + 1j])
        b = ComplexSignal([1 + 1j + 1e-12])
        assert a == b
        assert a.isclose(b)
        assert not a.isclose(ComplexSignal([2 + 0j]))
