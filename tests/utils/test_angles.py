"""Tests for angle and phase arithmetic helpers."""

import numpy as np
import pytest

from repro.utils.angles import (
    TWO_PI,
    angular_distance,
    phase_difference,
    unwrap_phase,
    wrap_angle,
)

#: ``np.isclose``'s default tolerance around ``-pi`` (``atol + rtol * pi``).
_EDGE = 1e-08 + 1e-05 * np.pi

#: Angles whose wrap lands on, near, or just either side of the ``-pi``
#: tolerance edge, plus the non-finite inputs.
_EDGE_INPUTS = [
    -np.pi,
    np.pi,
    3 * np.pi,
    -np.pi + 1e-8,
    -np.pi - 1e-8,
    np.pi + 1e-8,
    -np.pi + _EDGE,
    np.nextafter(-np.pi + _EDGE, 0.0),
    np.nextafter(-np.pi + _EDGE, -np.inf),
    -np.pi + 2 * _EDGE,
    np.pi - _EDGE,
    np.nan,
    np.inf,
    -np.inf,
    0.0,
]


def _isclose_reference(angle):
    """``wrap_angle`` as written with ``np.isclose`` (the behaviour to keep)."""
    with np.errstate(invalid="ignore"):
        wrapped = np.mod(np.asarray(angle, dtype=float) + np.pi, TWO_PI) - np.pi
    wrapped = np.where(np.isclose(wrapped, -np.pi), np.pi, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


class TestWrapAngle:
    def test_small_angle_unchanged(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)

    def test_negative_small_angle_unchanged(self):
        assert wrap_angle(-1.2) == pytest.approx(-1.2)

    def test_wraps_above_pi(self):
        assert wrap_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)

    def test_wraps_below_minus_pi(self):
        assert wrap_angle(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)

    def test_two_pi_maps_to_zero(self):
        assert wrap_angle(2 * np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_array_input_returns_array(self):
        out = wrap_angle(np.array([0.0, 3 * np.pi, -3 * np.pi]))
        assert isinstance(out, np.ndarray)
        assert out == pytest.approx([0.0, np.pi, np.pi])

    def test_scalar_input_returns_float(self):
        assert isinstance(wrap_angle(7.0), float)

    def test_large_multiple_of_two_pi(self):
        assert wrap_angle(10 * 2 * np.pi + 0.3) == pytest.approx(0.3)

    def test_exact_minus_pi_maps_to_pi(self):
        assert wrap_angle(-np.pi) == np.pi

    @pytest.mark.parametrize("angle", _EDGE_INPUTS)
    def test_scalar_matches_isclose_reference(self, angle):
        with np.errstate(invalid="ignore"):
            out = wrap_angle(angle)
        assert isinstance(out, float)
        np.testing.assert_array_equal(out, _isclose_reference(angle))

    @pytest.mark.parametrize("angle", _EDGE_INPUTS)
    def test_zero_dim_array_matches_isclose_reference(self, angle):
        with np.errstate(invalid="ignore"):
            out = wrap_angle(np.array(angle))
        assert isinstance(out, float)
        np.testing.assert_array_equal(out, _isclose_reference(np.array(angle)))

    def test_array_matches_isclose_reference(self):
        angles = np.array(_EDGE_INPUTS)
        with np.errstate(invalid="ignore"):
            out = wrap_angle(angles)
        np.testing.assert_array_equal(out, _isclose_reference(angles))

    def test_tolerance_edge_is_inclusive(self):
        wrapped = np.array([-np.pi + _EDGE, np.nextafter(-np.pi + _EDGE, 0.0)])
        # Already in the principal interval, so only the -pi rule can move them.
        out = wrap_angle(wrapped)
        np.testing.assert_array_equal(out, _isclose_reference(wrapped))
        assert out[0] == np.pi
        assert out[1] == wrapped[1]


class TestPhaseDifference:
    def test_simple_difference(self):
        assert phase_difference(1.0, 0.25) == pytest.approx(0.75)

    def test_wraps_across_boundary(self):
        # 3.0 - (-3.0) = 6.0, which wraps to 6.0 - 2*pi.
        assert phase_difference(3.0, -3.0) == pytest.approx(6.0 - 2 * np.pi)

    def test_msk_step_positive(self):
        assert phase_difference(np.pi / 2, 0.0) == pytest.approx(np.pi / 2)

    def test_array_difference(self):
        later = np.array([0.5, 1.0])
        earlier = np.array([0.0, 2.0])
        out = phase_difference(later, earlier)
        assert out == pytest.approx([0.5, -1.0])


class TestAngularDistance:
    def test_distance_is_symmetric(self):
        assert angular_distance(0.3, -0.2) == pytest.approx(angular_distance(-0.2, 0.3))

    def test_distance_wraps(self):
        # pi - epsilon and -pi + epsilon are close on the circle.
        assert angular_distance(np.pi - 0.01, -np.pi + 0.01) == pytest.approx(0.02)

    def test_distance_bounded_by_pi(self):
        values = np.linspace(-10, 10, 101)
        distances = angular_distance(values, 0.0)
        assert np.all(distances <= np.pi + 1e-12)


class TestUnwrapPhase:
    def test_unwrap_recovers_ramp(self):
        ramp = np.linspace(0, 8 * np.pi, 200)
        wrapped = wrap_angle(ramp)
        unwrapped = unwrap_phase(wrapped)
        assert np.allclose(np.diff(unwrapped), np.diff(ramp), atol=1e-9)
