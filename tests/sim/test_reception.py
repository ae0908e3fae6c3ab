"""Tests of the SINR-segment sessions, capture rules, and decode service."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.node.node import Node, NodeConfig
from repro.sim.reception import (
    DecodeService,
    ReceptionKind,
    ReceptionSession,
    classify_reception,
)

FRAME = 1000.0


def _session(noise=1e-6):
    return ReceptionSession(noise_power=noise)


class TestReceptionSession:
    def test_component_validation(self):
        session = _session()
        with pytest.raises(ConfigurationError):
            session.add(0, power=-1.0, start=0.0, end=FRAME)
        with pytest.raises(ConfigurationError):
            session.add(0, power=1.0, start=FRAME, end=FRAME)

    def test_single_component_is_one_clean_segment(self):
        session = _session(noise=1e-3)
        session.add(0, power=1.0, start=0.0, end=FRAME)
        segments = session.segments_for(0)
        assert len(segments) == 1
        assert segments[0].interferer_count == 0
        assert segments[0].sinr_db == pytest.approx(30.0, abs=0.1)

    def test_partial_overlap_cuts_segments(self):
        session = _session()
        session.add(0, power=1.0, start=0.0, end=FRAME)
        session.add(1, power=0.5, start=600.0, end=FRAME + 600.0)
        segments = session.segments_for(0)
        assert [s.interferer_count for s in segments] == [0, 1]
        assert segments[0].end == 600.0
        # The overlapped tail's SINR reflects the interferer power ratio.
        assert segments[1].sinr_db == pytest.approx(10.0 * np.log10(2.0), abs=0.1)
        assert session.min_sinr_db(0) == segments[1].sinr_db

    def test_strongest_and_lookup(self):
        session = _session()
        session.add(0, power=0.2, start=0.0, end=FRAME)
        session.add(1, power=0.9, start=0.0, end=FRAME)
        assert session.strongest().tx_id == 1
        assert session.component(0).power == 0.2
        with pytest.raises(SimulationError):
            session.component(99)


class TestClassifyReception:
    def test_empty_session_rejected(self):
        with pytest.raises(SimulationError):
            classify_reception(_session(), capture_threshold_db=10.0)

    def test_single_component_is_clean(self):
        session = _session()
        session.add(7, power=1.0, start=0.0, end=FRAME)
        assert classify_reception(session, 10.0) == (ReceptionKind.CLEAN, 7)

    def test_strong_component_captures(self):
        session = _session()
        session.add(0, power=1.0, start=0.0, end=FRAME)
        session.add(1, power=0.01, start=100.0, end=FRAME + 100.0)
        kind, primary = classify_reception(session, capture_threshold_db=10.0)
        assert kind is ReceptionKind.CAPTURED
        assert primary == 0

    def test_comparable_pair_with_known_frame_is_anc_decodable(self):
        session = _session()
        session.add(0, power=1.0, start=0.0, end=FRAME)
        session.add(1, power=0.9, start=200.0, end=FRAME + 200.0)
        kind, primary = classify_reception(session, 10.0, known_tx_ids=(0,))
        assert kind is ReceptionKind.ANC_COLLISION
        assert primary == 1, "decode target is the unknown component"

    def test_comparable_pair_without_knowledge_collides(self):
        session = _session()
        session.add(0, power=1.0, start=0.0, end=FRAME)
        session.add(1, power=0.9, start=200.0, end=FRAME + 200.0)
        assert classify_reception(session, 10.0) == (ReceptionKind.COLLIDED, None)

    def test_three_way_pileup_collides(self):
        session = _session()
        for tx_id in range(3):
            session.add(tx_id, power=1.0, start=tx_id * 100.0, end=FRAME + tx_id * 100.0)
        kind, _ = classify_reception(session, 10.0, known_tx_ids=(0, 1))
        assert kind is ReceptionKind.COLLIDED


class TestDecodeService:
    def test_roundtrip(self):
        node = Node(1, NodeConfig(payload_bits=64))
        packet = node.make_packet(destination=2, rng=np.random.default_rng(0))
        waveform = node.transmit(packet)
        result = DecodeService().decode_window(waveform, 0, len(waveform))
        assert result.packet is not None
        assert np.array_equal(result.packet.payload, packet.payload)

    def test_decode_windows_in_order(self):
        node = Node(1, NodeConfig(payload_bits=64))
        rng = np.random.default_rng(1)
        packets = [node.make_packet(destination=2, rng=rng) for _ in range(4)]
        windows = [(w, 0, len(w)) for w in map(node.transmit, packets)]
        results = DecodeService().decode_windows(windows)
        assert len(results) == len(packets)
        for result, packet in zip(results, packets):
            assert result.delivered
            assert np.array_equal(result.packet.payload, packet.payload)

    def test_invalid_window_rejected(self):
        node = Node(1, NodeConfig(payload_bits=64))
        waveform = node.transmit(node.make_packet(2, rng=np.random.default_rng(2)))
        with pytest.raises(ConfigurationError):
            DecodeService().decode_window(waveform, -1, len(waveform))

    def test_payload_ber(self):
        truth = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert DecodeService.payload_ber(None, truth) == 0.5
        assert DecodeService.payload_ber(np.array([0, 1], dtype=np.uint8), truth) == 0.5
        flipped = np.array([1, 1, 0, 1], dtype=np.uint8)
        assert DecodeService.payload_ber(flipped, truth) == pytest.approx(0.25)
