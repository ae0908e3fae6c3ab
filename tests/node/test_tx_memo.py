"""The node's transmit memo: each distinct packet is framed and modulated once.

Every memoised frame and waveform must equal what a fresh ``Framer`` and
``MSKModulator`` produce, sample for sample, on the first call, on repeat
calls and across nodes; entries never cross radios or payloads; the memo
stays bounded; and the sent-packet buffer sees the same stores in the same
order as without the memo.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Framer
from repro.framing.packet import Packet
from repro.modulation.msk import MSKModulator
from repro.node import node as node_module
from repro.node.node import TX_MEMO_SIZE, Node, NodeConfig


@pytest.fixture(autouse=True)
def cold_memo():
    node_module._tx_memo.clear()
    yield
    node_module._tx_memo.clear()


def reference_waveform(packet: Packet, amplitude: float = 1.0) -> np.ndarray:
    """The waveform without any memo: a fresh framer and modulator."""
    return MSKModulator(amplitude=amplitude).modulate(Framer().build(packet).bits).samples


def make_packet(sequence: int, payload_bits: int = 64, seed: int = 0, source: int = 1) -> Packet:
    rng = np.random.default_rng(seed * 100_003 + sequence)
    return Packet.random(source, 2, sequence, payload_bits, rng)


class CallCounter:
    """Counts calls of a method patched on its class, as a tracer would."""

    def __init__(self, monkeypatch, owner, name):
        self.count = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        payload_bits=st.integers(min_value=0, max_value=300),
        source=st.integers(min_value=0, max_value=255),
        destination=st.integers(min_value=0, max_value=255),
        sequence=st.integers(min_value=0, max_value=(1 << 16) - 1),
        amplitude=st.sampled_from([1.0, 0.5, 2.0, 0.3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_transmit_matches_fresh_framer_and_modulator(
        self, payload_bits, source, destination, sequence, amplitude, seed
    ):
        node_module._tx_memo.clear()
        payload = np.random.default_rng(seed).integers(0, 2, payload_bits, dtype=np.uint8)
        packet = Packet(source, destination, sequence, payload)
        expected = reference_waveform(packet, amplitude)
        config = NodeConfig(tx_amplitude=amplitude)
        sender, other = Node(1, config), Node(7, config)
        first = sender.transmit(packet)
        again = sender.transmit(packet)
        # An equal packet object sent by another node hits the same entry.
        copy = Packet(source, destination, sequence, payload.copy())
        across = other.transmit(copy)
        for waveform in (first, again, across):
            assert np.array_equal(waveform.samples, expected)
        frame = other.build_frame(copy)
        fresh = Framer().build(packet)
        assert np.array_equal(frame.bits, fresh.bits)
        assert frame.layout == fresh.layout
        assert frame.packet is copy

    def test_same_identity_other_payload_gets_its_own_waveform(self):
        node = Node(1)
        first = make_packet(5, seed=1)
        second = make_packet(5, seed=2)
        assert first.identity == second.identity
        assert not first.payload_equals(second)
        wave_first = node.transmit(first).samples
        wave_second = node.transmit(second).samples
        assert not np.array_equal(wave_first, wave_second)
        assert np.array_equal(wave_first, reference_waveform(first))
        assert np.array_equal(wave_second, reference_waveform(second))
        assert node.known_frames.lookup(*second.identity).packet is second

    def test_different_amplitudes_never_share_an_entry(self):
        packet = make_packet(0)
        quiet = Node(1, NodeConfig(tx_amplitude=0.5)).transmit(packet)
        loud = Node(1, NodeConfig(tx_amplitude=2.0)).transmit(packet)
        assert np.array_equal(quiet.samples, reference_waveform(packet, 0.5))
        assert np.array_equal(loud.samples, reference_waveform(packet, 2.0))
        assert len(node_module._tx_memo) == 2

    def test_remembered_packet_is_modulated_on_first_transmit(self):
        node = Node(1)
        packet = make_packet(3)
        node.remember_packet(packet)
        (entry,) = node_module._tx_memo.values()
        assert entry.waveform is None
        assert np.array_equal(node.transmit(packet).samples, reference_waveform(packet))


class TestReuse:
    def test_retransmit_and_forward_frame_and_modulate_once(self, monkeypatch):
        builds = CallCounter(monkeypatch, Framer, "build")
        modulations = CallCounter(monkeypatch, MSKModulator, "modulate")
        sender, relay = Node(1), Node(3)
        packet = make_packet(0)
        for _ in range(3):
            sender.transmit(packet)
        relay.forward(packet)
        relay.remember_packet(packet)
        assert (builds.count, modulations.count) == (1, 1)

    def test_memo_stays_bounded(self):
        node = Node(1)
        packets = [make_packet(seq) for seq in range(3 * TX_MEMO_SIZE)]
        for packet in packets:
            node.transmit(packet)
            assert len(node_module._tx_memo) <= TX_MEMO_SIZE
        # An evicted packet is framed and modulated again, identically.
        assert np.array_equal(node.transmit(packets[0]).samples, reference_waveform(packets[0]))

    def test_memoised_bits_and_waveform_are_read_only(self):
        node = Node(1)
        packet = make_packet(0)
        for _ in range(2):  # the first call fills the memo, the second hits it
            waveform = node.transmit(packet)
            frame = node.build_frame(packet)
            with pytest.raises(ValueError):
                frame.bits[0] = 1 - frame.bits[0]
            with pytest.raises(ValueError):
                waveform.samples[0] = 0

    def test_buffer_order_matches_a_memo_free_sender(self):
        # Interleaved first sends, retransmits and remembers, with
        # a buffer small enough to evict: the node's sent-packet buffer must
        # hold the same identities in the same order as a buffer fed with
        # freshly built frames.
        packets = [make_packet(seq) for seq in range(6)]
        order = [0, 1, 0, 2, 3, 1, 4, 0, 5, 2, 2, 3]
        node = Node(1, NodeConfig(buffer_capacity=4))
        reference = SentPacketBuffer(capacity=4)
        framer = Framer()
        for step, index in enumerate(order):
            packet = packets[index]
            if step % 3 == 2:
                node.remember_packet(packet)
            else:
                node.transmit(packet)
            reference.store(framer.build(packet))
            assert node.known_frames.identities() == reference.identities()

    def test_concurrent_senders_agree_with_reference(self):
        # More packets than the memo holds, sent from several threads that
        # switch often: lookups, inserts and evictions race.
        packets = [make_packet(seq) for seq in range(TX_MEMO_SIZE + 16)]
        expected = [reference_waveform(packet) for packet in packets]
        mismatches = []

        def worker(offset: int) -> None:
            node = Node(offset + 1)
            for round_ in range(2):
                for index in range(offset, len(packets), 3):
                    got = node.transmit(packets[index]).samples
                    if not np.array_equal(got, expected[index]):
                        mismatches.append(index)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i % 3,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(node_module._tx_memo) <= TX_MEMO_SIZE
