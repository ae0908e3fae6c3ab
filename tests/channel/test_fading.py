"""Tests of the Rayleigh/Rician fading stages: statistics and seeding."""

import numpy as np
import pytest

from repro.channel.fading import (
    FADING_KINDS,
    FADING_MODES,
    RayleighFadingChannel,
    RicianFadingChannel,
    make_fading_channel,
)
from repro.exceptions import ChannelError
from repro.signal.samples import ComplexSignal
from repro.utils.db import db_to_power_ratio


def _signal(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return ComplexSignal(np.exp(1j * rng.uniform(-np.pi, np.pi, n)))


class TestValidation:
    def test_rejects_non_positive_mean_power(self):
        with pytest.raises(ChannelError):
            RayleighFadingChannel(mean_power_gain=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ChannelError):
            RayleighFadingChannel(mode="warp")

    def test_rejects_out_of_range_doppler(self):
        with pytest.raises(ChannelError):
            RayleighFadingChannel(mode="drift", doppler=1.0)

    def test_rejects_doppler_in_block_mode(self):
        with pytest.raises(ChannelError):
            RayleighFadingChannel(mode="block", doppler=0.1)

    def test_rejects_negative_sample_count(self):
        channel = RayleighFadingChannel(rng=np.random.default_rng(0))
        with pytest.raises(ChannelError):
            channel.draw_gains(-1)

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ChannelError):
            make_fading_channel("weibull")

    def test_factory_none_returns_none(self):
        assert make_fading_channel("none") is None

    def test_factory_builds_every_registered_kind(self):
        for kind in FADING_KINDS:
            stage = make_fading_channel(kind, rng=np.random.default_rng(0))
            if kind == "none":
                assert stage is None
            else:
                assert stage is not None
        assert FADING_MODES == ("block", "drift")


class TestStatisticalMoments:
    def test_rayleigh_block_mean_power_matches_omega(self):
        channel = RayleighFadingChannel(
            mean_power_gain=0.7, rng=np.random.default_rng(11)
        )
        gains = np.array([complex(channel.draw_gains(1)) for _ in range(40000)])
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(0.7, rel=0.05)
        # Circular symmetry: the mean complex gain vanishes.
        assert abs(np.mean(gains)) < 0.02

    def test_rician_los_fraction_matches_k_factor(self):
        k_db = 7.0
        channel = RicianFadingChannel(
            k_db=k_db, los_phase=0.4, rng=np.random.default_rng(12)
        )
        gains = np.array([complex(channel.draw_gains(1)) for _ in range(40000)])
        k_linear = db_to_power_ratio(k_db)
        los = np.sqrt(k_linear / (k_linear + 1.0)) * np.exp(1j * 0.4)
        # The scattered part averages out, leaving the LOS ray.
        assert np.mean(gains) == pytest.approx(los, abs=0.02)
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_large_k_approaches_static_channel(self):
        channel = RicianFadingChannel(k_db=40.0, rng=np.random.default_rng(13))
        gains = np.array([complex(channel.draw_gains(1)) for _ in range(200)])
        assert np.std(np.abs(gains)) < 0.02

    def test_drift_track_is_stationary_in_power(self):
        channel = RayleighFadingChannel(
            mode="drift", doppler=0.01, rng=np.random.default_rng(14)
        )
        track = np.concatenate([channel.draw_gains(2000) for _ in range(20)])
        assert np.mean(np.abs(track) ** 2) == pytest.approx(1.0, rel=0.08)

    def test_drift_track_decorrelates_slowly(self):
        channel = RayleighFadingChannel(
            mode="drift", doppler=0.002, rng=np.random.default_rng(15)
        )
        track = channel.draw_gains(512)
        # Adjacent samples are nearly identical; distant ones are not.
        near = np.abs(track[1:] - track[:-1])
        assert np.max(near) < 0.5
        assert np.abs(track[0] - track[-1]) >= 0.0  # track exists end to end


class TestSeededReproducibility:
    def test_same_seed_same_fades(self):
        signal = _signal()
        first = RayleighFadingChannel(rng=np.random.default_rng(7)).apply(signal)
        second = RayleighFadingChannel(rng=np.random.default_rng(7)).apply(signal)
        assert np.array_equal(first.samples, second.samples)

    def test_different_seeds_differ(self):
        signal = _signal()
        first = RayleighFadingChannel(rng=np.random.default_rng(7)).apply(signal)
        second = RayleighFadingChannel(rng=np.random.default_rng(8)).apply(signal)
        assert not np.array_equal(first.samples, second.samples)

    def test_block_mode_applies_one_gain(self):
        signal = _signal()
        channel = RayleighFadingChannel(rng=np.random.default_rng(9))
        out = channel.apply(signal)
        ratio = out.samples / signal.samples
        assert np.allclose(ratio, ratio[0])

    def test_drift_mode_varies_within_packet(self):
        signal = _signal(256)
        channel = RayleighFadingChannel(
            mode="drift", doppler=0.05, rng=np.random.default_rng(10)
        )
        out = channel.apply(signal)
        ratio = out.samples / signal.samples
        assert not np.allclose(ratio, ratio[0])

    def test_empty_signal_passthrough(self):
        empty = ComplexSignal.empty()
        channel = RayleighFadingChannel(rng=np.random.default_rng(0))
        assert channel.apply(empty) is empty
