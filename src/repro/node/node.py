"""The basic wireless node.

A node bundles everything one radio needs:

* a :class:`~repro.framing.frame.Framer` and MSK modulator for the
  transmit path (Fig. 8, left),
* a :class:`~repro.framing.buffer.SentPacketBuffer` holding copies of the
  frames it transmitted or overheard — the network-layer side information
  ANC exploits,
* a :class:`~repro.anc.pipeline.ReceivePipeline` for the receive path
  (Fig. 8, right), sharing that buffer.

A sender keeps what it sent (§7.3) and resends the stored frame, so the
transmit path frames and modulates each distinct packet once: a small
process-wide memo, keyed on everything the frame bits and the waveform
depend on, serves retries, relay forwards and the identical packets that
different schemes of one experiment send.

The node is deliberately passive: *when* it transmits is decided by the
protocol / scheduler driving the simulation, mirroring how the paper
separates the signal processing from the (optimal) MAC used in the
evaluation (§11.1).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.anc.decoder import DecoderConfig
from repro.anc.pipeline import ReceivePipeline, ReceiveResult
from repro.constants import DEFAULT_TX_AMPLITUDE
from repro.exceptions import ConfigurationError
from repro.framing.buffer import SentPacketBuffer
from repro.framing.frame import Frame, FrameLayout, Framer
from repro.framing.packet import Packet
from repro.framing.pilot import PilotSequence
from repro.modulation.msk import MSKModulator
from repro.signal.samples import ComplexSignal


#: Most framed packets the transmit memo keeps at once.  The least recently
#: used entry is dropped beyond this and reframed if it is sent again.  On
#: quick ``offered_load_sweep`` and ``queueing_delay`` runs, 32 entries
#: still reframe about 80% more packets than there are distinct ones, and
#: 64 already frame each distinct packet once; more only costs memory.
TX_MEMO_SIZE = 64


@dataclass
class _TxEntry:
    """One memoised transmission: read-only frame bits, layout, waveform.

    The waveform is made on the first :meth:`Node.transmit`; a packet that
    is only remembered, never sent, is never modulated.
    """

    bits: np.ndarray
    layout: FrameLayout
    waveform: Optional[ComplexSignal] = None


_tx_memo: "OrderedDict[Hashable, _TxEntry]" = OrderedDict()
_tx_memo_lock = threading.Lock()


def _tx_lookup(key: Hashable) -> Optional[_TxEntry]:
    """The memoised entry for ``key`` (now the most recent), or ``None``."""
    with _tx_memo_lock:
        entry = _tx_memo.get(key)
        if entry is not None:
            _tx_memo.move_to_end(key)
        return entry


def _tx_insert(key: Hashable, entry: _TxEntry) -> None:
    """Memoise ``entry``, dropping the least recently used beyond the bound."""
    with _tx_memo_lock:
        _tx_memo[key] = entry
        while len(_tx_memo) > TX_MEMO_SIZE:
            _tx_memo.popitem(last=False)


@dataclass(frozen=True)
class NodeConfig:
    """Static configuration of a node's radio and protocol parameters."""

    payload_bits: int = 512
    tx_amplitude: float = DEFAULT_TX_AMPLITUDE
    noise_power: float = 1e-3
    buffer_capacity: int = 256
    decoder_config: Optional[DecoderConfig] = None

    def __post_init__(self) -> None:
        """Validate the radio parameters."""
        if self.payload_bits <= 0:
            raise ConfigurationError("payload_bits must be positive")
        if self.tx_amplitude <= 0:
            raise ConfigurationError("tx_amplitude must be positive")
        if self.noise_power < 0:
            raise ConfigurationError("noise_power must be non-negative")


class Node:
    """A wireless node with full transmit and receive chains."""

    def __init__(self, node_id: int, config: Optional[NodeConfig] = None) -> None:
        """Build the node's transmit and receive chains from its config."""
        if node_id < 0:
            raise ConfigurationError("node id must be non-negative")
        self.node_id = int(node_id)
        self.config = config if config is not None else NodeConfig()
        self.pilot = PilotSequence()
        self.framer = Framer(pilot=self.pilot)
        self.modulator = MSKModulator(amplitude=self.config.tx_amplitude)
        self.known_frames = SentPacketBuffer(capacity=self.config.buffer_capacity)
        self.pipeline = ReceivePipeline(
            noise_power=self.config.noise_power,
            expected_payload_bits=self.config.payload_bits,
            known_frames=self.known_frames,
            decoder_config=self.config.decoder_config,
            pilot=self.pilot,
            framer=self.framer,
        )
        self._sequence_counter = 0
        #: Packets this node has successfully received, keyed by identity.
        self.delivered: Dict[tuple, Packet] = {}

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def next_sequence(self) -> int:
        """Allocate the next per-node sequence number."""
        value = self._sequence_counter
        self._sequence_counter += 1
        return value

    def make_packet(self, destination: int, rng: Optional[np.random.Generator] = None) -> Packet:
        """Create a new random-payload packet addressed to ``destination``."""
        return Packet.random(
            source=self.node_id,
            destination=destination,
            sequence=self.next_sequence(),
            payload_bits=self.config.payload_bits,
            rng=rng,
        )

    def _tx_key(self, packet: Packet) -> Tuple[Hashable, ...]:
        """Everything this node's frame bits and waveform for ``packet`` depend on."""
        pilot, modulator = self.framer.pilot, self.modulator
        return (
            pilot.length,
            pilot.seed,
            self.framer.scrambler.seed,
            modulator.amplitude,
            modulator.samples_per_symbol,
            modulator.initial_phase,
            packet.identity,
            packet.payload.tobytes(),
        )

    def _framed(self, packet: Packet) -> Tuple[Frame, _TxEntry]:
        """Frame ``packet`` (or reuse its memoised frame) and remember it."""
        key = self._tx_key(packet)
        entry = _tx_lookup(key)
        if entry is None:
            # Threads that miss on one key at once each frame the packet;
            # the results are identical, so the last insert simply wins.
            frame = self.framer.build(packet)
            frame.bits.setflags(write=False)
            entry = _TxEntry(bits=frame.bits, layout=frame.layout)
            _tx_insert(key, entry)
        else:
            frame = Frame(packet=packet, bits=entry.bits, layout=entry.layout)
        self.known_frames.store(frame)
        return frame, entry

    def build_frame(self, packet: Packet) -> Frame:
        """Frame a packet and remember it for future interference cancellation."""
        return self._framed(packet)[0]

    def modulate(self, frame: Frame) -> ComplexSignal:
        """Produce the transmit waveform for a frame."""
        return self.modulator.modulate(frame.bits)

    def transmit(self, packet: Packet) -> ComplexSignal:
        """Frame, remember and modulate a packet in one step.

        A packet sent before, by this node or another one with the same
        radio, reuses its stored frame bits and waveform.
        """
        frame, entry = self._framed(packet)
        if entry.waveform is None:
            entry.waveform = self.modulate(frame)
        return entry.waveform

    def forward(self, packet: Packet) -> ComplexSignal:
        """Transmit a packet originated elsewhere (routing).

        The forwarded copy keeps the original addressing fields, so any
        downstream node that overhears or previously saw the packet can
        still identify it; the forwarding node also remembers the frame,
        which is what lets it cancel that frame later (chain topology).
        """
        return self.transmit(packet)

    def overhear(self, frame: Frame) -> None:
        """Store a frame decoded while snooping, for later cancellation (§11.5)."""
        self.known_frames.store(frame)

    def remember_packet(self, packet: Packet) -> Frame:
        """Store the frame of a packet this node knows about without transmitting."""
        return self.build_frame(packet)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, waveform: ComplexSignal) -> ReceiveResult:
        """Run the full receive pipeline on a waveform heard off the air."""
        result = self.pipeline.receive(waveform)
        if result.delivered and result.packet is not None:
            if result.packet.destination == self.node_id:
                self.delivered[result.packet.identity] = result.packet
        return result

    @property
    def frame_samples(self) -> int:
        """Number of samples every frame of this node occupies on the air."""
        return self.pipeline.frame_samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging representation."""
        return f"Node(id={self.node_id}, payload_bits={self.config.payload_bits})"
