"""End-to-end tests of the event-driven Alice-relay-Bob traffic simulation."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.network.topologies import ChannelConditions
from repro.sim.simulation import SCHEMES, SimParams, TrafficSimulation

ENTROPY = [7, 600, 0]
CONDITIONS = ChannelConditions(snr_db=18.0)

METRIC_KEYS = {
    "throughput",
    "delivered",
    "offered",
    "mean_ber",
    "drop_rate",
    "delay_mean",
    "delay_p95",
    "queue_wait_mean",
    "slots",
}


def _run(**overrides):
    params = SimParams(**{"sim_duration_frames": 24.0, **overrides})
    return TrafficSimulation(params, entropy=ENTROPY, conditions=CONDITIONS).run()


class TestSimParams:
    def test_defaults_are_valid(self):
        params = SimParams()
        assert params.scheme == "anc"
        assert params.mac_policy == "csma"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("scheme", "flooding"),
            ("mac_policy", "aloha"),
            ("traffic_model", "fractal"),
            ("arrival_rate", 0.0),
            ("sim_duration_frames", -1.0),
            ("payload_bits", 100),
            ("mean_overlap", 1.5),
            ("queue_capacity", 0),
            ("patience_frames", -1.0),
        ],
    )
    def test_bad_knobs_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SimParams(**{field: value})


class TestSchemes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_each_scheme_delivers_at_moderate_load(self, scheme):
        report = _run(scheme=scheme, arrival_rate=0.4)
        metrics = report.metrics()
        assert set(metrics) == METRIC_KEYS
        assert metrics["offered"] > 0
        assert metrics["delivered"] > 0
        assert metrics["throughput"] > 0
        assert 0.0 <= metrics["drop_rate"] <= 1.0
        assert report.trace_digest

    def test_anc_beats_traditional_at_high_load(self):
        anc = _run(scheme="anc", arrival_rate=1.2, sim_duration_frames=48.0)
        trad = _run(scheme="traditional", arrival_rate=1.2, sim_duration_frames=48.0)
        assert anc.metrics()["throughput"] > trad.metrics()["throughput"]
        assert anc.metrics()["drop_rate"] < trad.metrics()["drop_rate"]

    def test_redundancy_overhead_charges_goodput(self):
        plain = _run(scheme="anc", redundancy_overhead=0.0)
        taxed = _run(scheme="anc", redundancy_overhead=0.25)
        assert taxed.metrics()["throughput"] == pytest.approx(
            plain.metrics()["throughput"] / 1.25
        )


class TestDeterminism:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_same_entropy_reproduces_run_exactly(self, scheme):
        first = _run(scheme=scheme)
        second = _run(scheme=scheme)
        assert first.metrics() == second.metrics()
        assert first.trace_digest == second.trace_digest
        assert first.events == second.events

    def test_different_entropy_diverges(self):
        params = SimParams(sim_duration_frames=24.0)
        a = TrafficSimulation(params, entropy=[1], conditions=CONDITIONS).run()
        b = TrafficSimulation(params, entropy=[2], conditions=CONDITIONS).run()
        assert a.trace_digest != b.trace_digest


class TestPatienceRegression:
    """The float-epsilon wake-up bug: patience wake-ups fired a few ulps
    before their nominal deadline (schedule_at round-trips through a
    delay), failed the age test, and rescheduled the same instant forever.
    These exact (scheme, load, entropy) combinations used to hang."""

    @pytest.mark.parametrize(
        "scheme,rate,run",
        [("cope", 0.3, 0), ("anc", 0.3, 0), ("anc", 0.3, 1), ("anc", 0.8, 0)],
    )
    def test_formerly_hanging_combinations_terminate(self, scheme, rate, run):
        params = SimParams(scheme=scheme, arrival_rate=rate, sim_duration_frames=48.0)
        entropy = [7, 600, run, 1049846468, int(round(rate * 1000))]
        report = TrafficSimulation(params, entropy=entropy, conditions=CONDITIONS).run()
        assert report.events < 200_000, "event count bounded (no zero-delay loop)"


class TestMacPolicies:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheduled_grid_never_drops_to_retries(self, scheme):
        report = _run(scheme=scheme, mac_policy="scheduled", arrival_rate=0.6)
        assert report.retry_drops == 0
        assert report.metrics()["delivered"] > 0

    def test_csma_contention_costs_throughput_vs_tdma_at_load(self):
        csma = _run(scheme="traditional", arrival_rate=1.0, sim_duration_frames=48.0)
        tdma = _run(
            scheme="traditional",
            mac_policy="scheduled",
            arrival_rate=1.0,
            sim_duration_frames=48.0,
        )
        # Hidden terminals collapse contention; the collision-free grid keeps going.
        assert tdma.metrics()["throughput"] > csma.metrics()["throughput"]


class TestTrafficModels:
    def test_bursty_stretches_the_delay_tail_vs_cbr(self):
        cbr = _run(mac_policy="scheduled", traffic_model="cbr", arrival_rate=0.5)
        bursty = _run(mac_policy="scheduled", traffic_model="bursty", arrival_rate=0.5)
        assert bursty.metrics()["delay_p95"] > cbr.metrics()["delay_p95"]

    def test_queue_capacity_bounds_backlog_drops(self):
        small = _run(traffic_model="bursty", arrival_rate=1.5, queue_capacity=1)
        large = _run(traffic_model="bursty", arrival_rate=1.5, queue_capacity=64)
        assert small.queue_drops > large.queue_drops


class TestReportShape:
    def test_params_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimParams().scheme = "cope"

    def test_empty_run_yields_zero_metrics(self):
        report = _run(arrival_rate=0.01, sim_duration_frames=1.0)
        metrics = report.metrics()
        assert metrics["offered"] == 0.0
        assert metrics["drop_rate"] == 0.0
        assert metrics["throughput"] == 0.0
