"""The event-driven Alice–relay–Bob traffic simulation (§8-style load runs).

This module ties the :mod:`repro.sim` pieces together into one
:class:`TrafficSimulation`: Poisson/CBR/bursty arrivals feed per-endpoint
FIFO queues, a pluggable MAC (CSMA with binary exponential backoff, or
the planner-style TDMA grid) grants channel access, overlapping
transmissions are resolved through SINR-segment capture rules, and every
surviving waveform is decoded by the *existing* PHY — aligned MSK
demodulation for clean and captured frames, the full
:class:`~repro.anc.pipeline.ReceivePipeline` for ANC collisions.

Three relaying schemes compete on the same arrival sample paths:

* ``traditional`` — store-and-forward routing: every packet costs an
  endpoint→relay transmission plus a relay→endpoint transmission, and
  the hidden-terminal geometry (Alice and Bob cannot hear each other)
  makes uplink collisions at the relay increasingly likely with load;
* ``cope`` — the relay XORs one head-of-line packet per direction into a
  single coded broadcast (3 transmissions per 2 packets), falling back
  to plain forwarding when only one direction has patient traffic;
* ``anc`` — when both directions have traffic and the channel is idle,
  the endpoints are triggered to transmit *concurrently* with the §7.2
  partial-overlap offsets; the relay amplifies the collision and
  broadcasts it, and each endpoint cancels its own frame to decode the
  other's (2 transmissions per 2 packets).

At low offered load all three deliver whatever arrives; past their
saturation points they diverge — the goodput ordering
``anc > cope > traditional`` at high load is the paper's §8 qualitative
result, reproduced by the ``offered_load_sweep`` scenario.

Everything is deterministic given the entropy passed in: arrivals,
payloads, backoffs and noise all come from named
:class:`~repro.sim.core.RngStreams`, and the event order is captured in
the scheduler's trace digest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.interference import InterferenceCombiner, OverlapModel
from repro.exceptions import ConfigurationError
from repro.framing.packet import Packet
from repro.network.topologies import ALICE, BOB, RELAY, ChannelConditions, alice_bob_topology
from repro.network.topology import Topology
from repro.node.node import Node, NodeConfig
from repro.node.relay import RelayNode
from repro.protocols.anc import default_min_offset
from repro.sim.core import EventScheduler, RngStreams
from repro.sim.mac import MAC_POLICIES, CsmaBackoffMac, CsmaState, ScheduledMac
from repro.sim.queueing import PacketQueue
from repro.sim.reception import (
    DecodeService,
    ReceptionKind,
    ReceptionSession,
    classify_reception,
)
from repro.sim.traffic import TRAFFIC_MODELS, make_arrival_process
from repro.utils.bits import bit_error_rate

__all__ = ["SCHEMES", "SimParams", "SimReport", "TrafficSimulation"]

#: The relaying schemes the traffic simulation can run.
SCHEMES: Tuple[str, ...] = ("anc", "cope", "traditional")

#: Broadcast destination id used by COPE-coded relay frames.
_BROADCAST = 255

#: Tolerance (samples) for comparing event times against deadlines.
#: ``schedule_at`` round-trips absolute times through a relative delay,
#: so a wake-up can fire a few ulps before its nominal deadline; without
#: the epsilon an exact ``age >= patience`` test could reschedule the
#: same instant forever.
_TIME_EPS = 1e-6


@dataclass(frozen=True)
class SimParams:
    """Knobs of one traffic-simulation run.

    Attributes
    ----------
    scheme:
        Relaying scheme (:data:`SCHEMES`).
    mac_policy:
        ``"csma"`` (contention + BEB) or ``"scheduled"`` (TDMA grid) —
        :data:`repro.sim.mac.MAC_POLICIES`.
    traffic_model:
        Arrival process family (:data:`repro.sim.traffic.TRAFFIC_MODELS`).
    arrival_rate:
        Total offered load, in packets per frame-time summed over both
        directions (each endpoint generates half).
    sim_duration_frames:
        Simulated horizon in frame-times.
    payload_bits:
        Packet payload size (fixed MTU).
    ber_acceptance:
        Residual BER the per-scheme FEC is assumed to repair.
    redundancy_overhead:
        Redundancy charged against the scheme's goodput.
    mean_overlap, overlap_jitter:
        §7.2 deliberate-overlap geometry for the ANC exchanges.
    queue_capacity:
        Per-queue packet capacity (tail drop beyond it).
    capture_threshold_db:
        Worst-segment SINR above which the strongest colliding frame is
        captured (decoded despite interference).
    patience_frames:
        How long a lone head-of-line packet waits for a coding partner
        (COPE) or a reverse-direction packet (ANC) before it is plainly
        forwarded.
    guard_samples:
        Guard time appended to scheduled slots.
    """

    scheme: str = "anc"
    mac_policy: str = "csma"
    traffic_model: str = "poisson"
    arrival_rate: float = 0.6
    sim_duration_frames: float = 48.0
    payload_bits: int = 512
    ber_acceptance: float = 0.05
    redundancy_overhead: float = 0.0
    mean_overlap: float = 0.85
    overlap_jitter: float = 0.05
    queue_capacity: int = 8
    capture_threshold_db: float = 10.0
    patience_frames: float = 3.0
    guard_samples: int = 64

    def __post_init__(self) -> None:
        """Validate every knob against its registry / admissible range."""
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; choose from {', '.join(SCHEMES)}"
            )
        if self.mac_policy not in MAC_POLICIES:
            raise ConfigurationError(
                f"unknown mac policy {self.mac_policy!r}; choose from {', '.join(MAC_POLICIES)}"
            )
        if self.traffic_model not in TRAFFIC_MODELS:
            raise ConfigurationError(
                f"unknown traffic model {self.traffic_model!r}; choose from "
                f"{', '.join(TRAFFIC_MODELS)}"
            )
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.sim_duration_frames <= 0:
            raise ConfigurationError("sim_duration_frames must be positive")
        if self.payload_bits <= 0 or self.payload_bits % 8 != 0:
            raise ConfigurationError("payload_bits must be a positive multiple of 8")
        if not 0.0 < self.mean_overlap <= 1.0:
            raise ConfigurationError("mean_overlap must lie in (0, 1]")
        if self.queue_capacity <= 0:
            raise ConfigurationError("queue_capacity must be positive")
        if self.patience_frames < 0:
            raise ConfigurationError("patience_frames must be non-negative")


@dataclass
class SimReport:
    """Aggregated outcome of one traffic-simulation run."""

    params: SimParams
    duration_samples: float
    frame_samples: int
    offered: int = 0
    delivered: int = 0
    delivered_bits: int = 0
    queue_drops: int = 0
    retry_drops: int = 0
    losses: int = 0
    transmissions: int = 0
    events: int = 0
    delays: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    bers: List[float] = field(default_factory=list)
    trace_digest: str = ""

    def metrics(self) -> Dict[str, float]:
        """Flatten the run into the plain floats a scenario trial returns.

        ``throughput`` is goodput — delivered payload bits net of the
        scheme's redundancy overhead, per sample of simulated time.
        Delay statistics are in frame-time units.
        """
        frame = float(self.frame_samples)
        delays = [d / frame for d in self.delays]
        waits = [w / frame for w in self.queue_waits]
        goodput = (
            self.delivered_bits
            / (1.0 + self.params.redundancy_overhead)
            / self.duration_samples
        )
        dropped = self.queue_drops + self.retry_drops + self.losses
        return {
            "throughput": float(goodput),
            "delivered": float(self.delivered),
            "offered": float(self.offered),
            "mean_ber": float(np.mean(self.bers)) if self.bers else 0.0,
            "drop_rate": float(dropped / self.offered) if self.offered else 0.0,
            "delay_mean": float(np.mean(delays)) if delays else 0.0,
            "delay_p95": float(np.percentile(delays, 95)) if delays else 0.0,
            "queue_wait_mean": float(np.mean(waits)) if waits else 0.0,
            "slots": float(self.transmissions),
        }


@dataclass
class _Tx:
    """One in-flight transmission on the shared medium."""

    tx_id: int
    sender: int
    waveform: Any
    start: float
    end: float
    kind: str
    meta: Dict[str, Any]


class TrafficSimulation:
    """One seeded, deterministic Alice–relay–Bob traffic run.

    Parameters
    ----------
    params:
        The run's knobs.
    entropy:
        Integer seed material for the :class:`RngStreams`; two runs with
        equal params and entropy are bit-identical (equal metrics *and*
        equal event-trace digests) wherever they execute.
    conditions:
        Channel conditions for the topology draw (defaults to the
        standard operating point).
    """

    def __init__(
        self,
        params: SimParams,
        entropy: Sequence[int],
        conditions: Optional[ChannelConditions] = None,
    ) -> None:
        """Build nodes, queues, MAC and traffic state for one run."""
        self.params = params
        self.streams = RngStreams(entropy)
        self.conditions = conditions if conditions is not None else ChannelConditions()
        self.topology: Topology = alice_bob_topology(
            self.conditions, self.streams.stream("topology")
        )
        self.nodes: Dict[int, Node] = {}
        for node_id in self.topology.nodes:
            node_config = NodeConfig(
                payload_bits=params.payload_bits,
                noise_power=self.topology.noise_power(node_id),
            )
            if node_id == RELAY:
                self.nodes[node_id] = RelayNode(node_id, node_config)
            else:
                self.nodes[node_id] = Node(node_id, node_config)
        self.frame_samples = self.nodes[ALICE].frame_samples
        self.duration_samples = params.sim_duration_frames * self.frame_samples
        self.sched = EventScheduler()
        self.decoder = DecodeService()
        self.report = SimReport(
            params=params,
            duration_samples=self.duration_samples,
            frame_samples=self.frame_samples,
        )

        # Traffic: each endpoint generates half the configured load.
        per_endpoint_interarrival = 2.0 * self.frame_samples / params.arrival_rate
        self._arrivals = {
            endpoint: make_arrival_process(params.traffic_model, per_endpoint_interarrival)
            for endpoint in (ALICE, BOB)
        }
        self.queues = {
            endpoint: PacketQueue(capacity=params.queue_capacity)
            for endpoint in (ALICE, BOB)
        }
        #: Relay store-and-forward buffer: dicts with packet/arrival/dst.
        self._relay_buffer: Deque[Dict[str, Any]] = deque()
        #: Relay ANC broadcast jobs, ahead of any plain forwards.
        self._relay_broadcasts: Deque[Dict[str, Any]] = deque()

        # MAC state.
        self.mac = CsmaBackoffMac()
        self._csma: Dict[int, CsmaState] = {
            node_id: self.mac.fresh_state() for node_id in self.topology.nodes
        }
        self._pending_access: Dict[int, bool] = {
            node_id: False for node_id in self.topology.nodes
        }
        #: Head-of-line unit per node: the frame currently being contended
        #: for / retransmitted (endpoints: packet dicts; relay: jobs).
        self._hol: Dict[int, Optional[Dict[str, Any]]] = {
            node_id: None for node_id in self.topology.nodes
        }
        self._patience_events: Dict[int, Any] = {}
        self._relay_recheck: Any = None
        self._scheduled: Optional[ScheduledMac] = None
        if params.mac_policy == "scheduled":
            self._scheduled = self._build_slot_grid()

        # Medium state.
        self._active: List[_Tx] = []
        self._group: List[_Tx] = []
        self._tx_counter = 0
        self._anc_active = False

        self.overlap_model = OverlapModel(
            mean_overlap=params.mean_overlap,
            jitter=params.overlap_jitter,
            min_offset=default_min_offset(),
            rng=self.streams.stream("overlap"),
        )
        self._patience_samples = params.patience_frames * self.frame_samples

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _build_slot_grid(self) -> ScheduledMac:
        """Size the TDMA grid for the scheme (ANC slots fit the overlap)."""
        guard = self.params.guard_samples
        if self.params.scheme == "anc":
            max_offset = int(
                np.ceil(
                    (1.0 - self.params.mean_overlap + self.params.overlap_jitter)
                    * self.frame_samples
                )
            )
            max_offset = max(max_offset, default_min_offset())
            return ScheduledMac(
                slot_samples=self.frame_samples + max_offset + guard, n_ranks=2
            )
        return ScheduledMac(slot_samples=self.frame_samples + guard, n_ranks=3)

    @staticmethod
    def _other_endpoint(endpoint: int) -> int:
        """The opposite endpoint of the bidirectional flow."""
        return BOB if endpoint == ALICE else ALICE

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> SimReport:
        """Execute the run and return its aggregated report."""
        for endpoint in (ALICE, BOB):
            delay = self._arrivals[endpoint].next_interarrival(
                self.streams.node_stream(endpoint, "arrivals")
            )
            self.sched.schedule(
                delay, lambda e=endpoint: self._on_arrival(e), kind=f"arrival@{endpoint}"
            )
        if self._scheduled is not None:
            self.sched.schedule_at(0.0, self._on_slot, kind="slot", priority=-1)
        self.report.events = self.sched.run_until(self.duration_samples)
        self.report.trace_digest = self.sched.trace_digest()
        return self.report

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _on_arrival(self, endpoint: int) -> None:
        """One packet arrives at an endpoint; schedule the next arrival."""
        now = self.sched.now
        packet = self.nodes[endpoint].make_packet(
            self._other_endpoint(endpoint),
            rng=self.streams.node_stream(endpoint, "payload"),
        )
        self.report.offered += 1
        accepted = self.queues[endpoint].offer(packet, now)
        if not accepted:
            self.report.queue_drops += 1
        delay = self._arrivals[endpoint].next_interarrival(
            self.streams.node_stream(endpoint, "arrivals")
        )
        self.sched.schedule(
            delay, lambda e=endpoint: self._on_arrival(e), kind=f"arrival@{endpoint}"
        )
        if accepted and self._scheduled is None:
            self._kick_endpoint(endpoint)
            if self.params.scheme == "anc":
                self._kick_endpoint(self._other_endpoint(endpoint))

    # ------------------------------------------------------------------
    # CSMA access
    # ------------------------------------------------------------------
    def _sense_busy(self, node_id: int) -> bool:
        """Carrier sense: does this node currently hear any transmission?"""
        for tx in self._active:
            if tx.sender == node_id or self.topology.in_range(tx.sender, node_id):
                return True
        return False

    def _busy_end(self, node_id: int) -> float:
        """Latest end time among the transmissions this node can hear."""
        ends = [
            tx.end
            for tx in self._active
            if tx.sender == node_id or self.topology.in_range(tx.sender, node_id)
        ]
        return max(ends) if ends else self.sched.now

    def _kick_all(self) -> None:
        """Re-evaluate every node's send opportunity (after a resolution)."""
        if self._scheduled is not None:
            return
        for endpoint in (ALICE, BOB):
            self._kick_endpoint(endpoint)
        self._kick_relay()

    def _kick_endpoint(self, endpoint: int) -> None:
        """Endpoint send decision under CSMA (scheme-aware)."""
        if self._scheduled is not None:
            return
        if self._hol[endpoint] is not None or self._pending_access[endpoint]:
            return
        queue = self.queues[endpoint]
        if queue.is_empty:
            return
        if self.params.scheme == "anc":
            other = self._other_endpoint(endpoint)
            if not self.queues[other].is_empty:
                self._maybe_anc_exchange()
                return
            head = queue.peek()
            age = self.sched.now - head.arrival_time
            if age < self._patience_samples - _TIME_EPS:
                self._schedule_patience(endpoint, head.arrival_time)
                return
        entry = queue.pop(self.sched.now)
        self.report.queue_waits.append(self.sched.now - entry.arrival_time)
        self._hol[endpoint] = {
            "packet": entry.packet,
            "arrival": entry.arrival_time,
            "dst": self._other_endpoint(endpoint),
        }
        self._request_access(endpoint)

    def _schedule_patience(self, endpoint: int, arrival_time: float) -> None:
        """Wake the endpoint when its lone head-of-line packet turns patient."""
        if endpoint in self._patience_events:
            return
        wake_at = arrival_time + self._patience_samples + 1.0
        self._patience_events[endpoint] = self.sched.schedule_at(
            max(wake_at, self.sched.now),
            lambda e=endpoint: self._on_patience(e),
            kind=f"patience@{endpoint}",
        )

    def _on_patience(self, endpoint: int) -> None:
        """The patience horizon passed; retry the endpoint send decision."""
        self._patience_events.pop(endpoint, None)
        self._kick_endpoint(endpoint)

    def _request_access(self, node_id: int) -> None:
        """Begin a DIFS + backoff countdown toward channel access."""
        self._pending_access[node_id] = True
        delay = self.mac.access_delay(
            self._csma[node_id], self.streams.node_stream(node_id, "mac")
        )
        self.sched.schedule(
            delay, lambda n=node_id: self._on_access(n), kind=f"access@{node_id}"
        )

    def _on_access(self, node_id: int) -> None:
        """Backoff expired: transmit if the channel is idle, else re-arm."""
        self._pending_access[node_id] = False
        if self._hol[node_id] is None:
            return
        if self._sense_busy(node_id):
            self._pending_access[node_id] = True
            resume = self._busy_end(node_id) - self.sched.now
            delay = resume + self.mac.access_delay(
                self._csma[node_id], self.streams.node_stream(node_id, "mac")
            )
            self.sched.schedule(
                delay, lambda n=node_id: self._on_access(n), kind=f"access@{node_id}"
            )
            return
        self._transmit_hol(node_id)

    def _transmit_hol(self, node_id: int) -> None:
        """Put the node's head-of-line unit on the air."""
        unit = self._hol[node_id]
        if unit is None:
            return
        if node_id == RELAY:
            self._transmit_relay_job(unit)
            return
        waveform = self.nodes[node_id].transmit(unit["packet"])
        self._begin_tx(node_id, waveform, kind="data", meta=dict(unit, origin=node_id))

    # ------------------------------------------------------------------
    # Relay job management
    # ------------------------------------------------------------------
    def _kick_relay(self) -> None:
        """Relay send decision under CSMA."""
        if self._scheduled is not None:
            return
        if self._hol[RELAY] is not None or self._pending_access[RELAY]:
            return
        job = self._dequeue_relay_job()
        if job is None:
            return
        self._hol[RELAY] = job
        self._request_access(RELAY)

    def _dequeue_relay_job(self) -> Optional[Dict[str, Any]]:
        """Pick the relay's next unit of work (scheme-aware)."""
        if self._relay_broadcasts:
            return self._relay_broadcasts.popleft()
        if not self._relay_buffer:
            return None
        if self.params.scheme == "cope":
            return self._dequeue_cope_job()
        entry = self._relay_buffer.popleft()
        return {"kind": "forward", **entry}

    def _dequeue_cope_job(self) -> Optional[Dict[str, Any]]:
        """Pair opposite-direction packets into one XOR-coded broadcast.

        With only one direction buffered, the head packet waits up to the
        patience horizon for a partner before being plainly forwarded.
        """
        for_alice = next((e for e in self._relay_buffer if e["dst"] == ALICE), None)
        for_bob = next((e for e in self._relay_buffer if e["dst"] == BOB), None)
        if for_alice is not None and for_bob is not None:
            self._relay_buffer.remove(for_alice)
            self._relay_buffer.remove(for_bob)
            return {"kind": "cope_coded", "pair": {ALICE: for_alice, BOB: for_bob}}
        oldest = self._relay_buffer[0]
        if self.sched.now - oldest["relay_time"] >= self._patience_samples - _TIME_EPS:
            self._relay_buffer.popleft()
            return {"kind": "forward", **oldest}
        if self._relay_recheck is None:
            self._relay_recheck = self.sched.schedule_at(
                max(oldest["relay_time"] + self._patience_samples + 1.0, self.sched.now),
                self._on_relay_recheck,
                kind="relay_patience",
            )
        return None

    def _on_relay_recheck(self) -> None:
        """Patience horizon reached: retry the relay send decision."""
        self._relay_recheck = None
        if self._scheduled is None:
            self._kick_relay()

    def _transmit_relay_job(self, job: Dict[str, Any]) -> None:
        """Put one relay job on the air."""
        relay = self.nodes[RELAY]
        if job["kind"] == "anc_broadcast":
            self._begin_tx(RELAY, job["waveform"], kind="anc_broadcast", meta=job)
        elif job["kind"] == "cope_coded":
            pair = job["pair"]
            coded_payload = np.bitwise_xor(
                pair[ALICE]["packet"].payload, pair[BOB]["packet"].payload
            ).astype(np.uint8)
            coded = Packet(
                source=RELAY,
                destination=_BROADCAST,
                sequence=relay.next_sequence(),
                payload=coded_payload,
            )
            self._begin_tx(RELAY, relay.transmit(coded), kind="cope_coded", meta=job)
        else:
            self._begin_tx(
                RELAY,
                relay.forward(job["packet"]),
                kind="data",
                meta=dict(job, origin=RELAY),
            )

    # ------------------------------------------------------------------
    # Scheduled (TDMA) MAC
    # ------------------------------------------------------------------
    def _on_slot(self) -> None:
        """One TDMA slot boundary: the owner transmits, the chain continues."""
        grid = self._scheduled
        assert grid is not None
        slot_index = int(round(self.sched.now / grid.slot_samples))
        owner = grid.slot_owner(slot_index)
        self.sched.schedule(
            grid.slot_samples, self._on_slot, kind="slot", priority=-1
        )
        if self.params.scheme == "anc":
            if owner == 0:
                self._scheduled_anc_uplink()
            else:
                self._scheduled_relay_send()
        else:
            if owner == 0:
                self._scheduled_endpoint_send(ALICE)
            elif owner == 1:
                self._scheduled_endpoint_send(BOB)
            else:
                self._scheduled_relay_send()

    def _scheduled_endpoint_send(self, endpoint: int) -> None:
        """A scheduled endpoint slot: send the head of line, if any."""
        queue = self.queues[endpoint]
        if queue.is_empty:
            return
        entry = queue.pop(self.sched.now)
        self.report.queue_waits.append(self.sched.now - entry.arrival_time)
        packet, arrival = entry.packet, entry.arrival_time
        waveform = self.nodes[endpoint].transmit(packet)
        self._begin_tx(
            endpoint,
            waveform,
            kind="data",
            meta={
                "packet": packet,
                "arrival": arrival,
                "dst": self._other_endpoint(endpoint),
                "origin": endpoint,
            },
        )

    def _scheduled_anc_uplink(self) -> None:
        """The ANC grid's endpoint phase: paired uplink, or patient forward."""
        alice_q, bob_q = self.queues[ALICE], self.queues[BOB]
        if not alice_q.is_empty and not bob_q.is_empty:
            self._launch_anc_uplink()
            return
        for endpoint in (ALICE, BOB):
            queue = self.queues[endpoint]
            head = queue.peek()
            if head is None:
                continue
            if self.sched.now - head.arrival_time >= self._patience_samples:
                self._scheduled_endpoint_send(endpoint)
            return

    def _scheduled_relay_send(self) -> None:
        """A scheduled relay slot: broadcast/forward the next job, if any."""
        job = self._dequeue_relay_job()
        if job is None:
            return
        self._transmit_relay_job(job)

    # ------------------------------------------------------------------
    # ANC exchange (CSMA trigger path)
    # ------------------------------------------------------------------
    def _maybe_anc_exchange(self) -> None:
        """Trigger a paired uplink when both directions have traffic."""
        if self._anc_active or self._scheduled is not None:
            return
        if self.queues[ALICE].is_empty or self.queues[BOB].is_empty:
            return
        # Every node must be quiescent: a pending relay broadcast winning
        # channel access mid-exchange would contaminate the uplink group.
        for node_id in (ALICE, BOB, RELAY):
            if self._hol[node_id] is not None or self._pending_access[node_id]:
                return
        if self._sense_busy(ALICE) or self._sense_busy(BOB) or self._sense_busy(RELAY):
            return
        self._anc_active = True
        self._launch_anc_uplink()

    def _launch_anc_uplink(self) -> None:
        """Pop both heads of line and start the §7.2 offset transmissions."""
        entries = {}
        for endpoint in (ALICE, BOB):
            event = self._patience_events.pop(endpoint, None)
            if event is not None:
                self.sched.cancel(event)
            entry = self.queues[endpoint].pop(self.sched.now)
            self.report.queue_waits.append(self.sched.now - entry.arrival_time)
            entries[endpoint] = entry
        first, second = self.overlap_model.draw_offsets(self.frame_samples)
        if self.streams.stream("overlap").uniform() < 0.5:
            offsets = {ALICE: first, BOB: second}
        else:
            offsets = {ALICE: second, BOB: first}
        for endpoint, entry in entries.items():
            packet, arrival = entry.packet, entry.arrival_time
            self.sched.schedule(
                offsets[endpoint],
                lambda e=endpoint, p=packet, a=arrival: self._begin_tx(
                    e,
                    self.nodes[e].transmit(p),
                    kind="anc_uplink",
                    meta={"packet": p, "arrival": a, "dst": self._other_endpoint(e)},
                ),
                kind=f"anc_uplink@{endpoint}",
            )

    # ------------------------------------------------------------------
    # Medium / collision groups
    # ------------------------------------------------------------------
    def _begin_tx(self, sender: int, waveform, kind: str, meta: Dict[str, Any]) -> None:
        """Start a transmission and arm its end event."""
        tx = _Tx(
            tx_id=self._tx_counter,
            sender=sender,
            waveform=waveform,
            start=self.sched.now,
            end=self.sched.now + len(waveform),
            kind=kind,
            meta=meta,
        )
        self._tx_counter += 1
        self.report.transmissions += 1
        self._active.append(tx)
        self._group.append(tx)
        self.sched.schedule(
            len(waveform), lambda t=tx: self._on_tx_end(t), kind=f"tx_end@{sender}"
        )

    def _on_tx_end(self, tx: _Tx) -> None:
        """A transmission left the air; resolve the group once it drains."""
        self._active.remove(tx)
        # Coded/broadcast frames are fire-and-forget: no genie feedback,
        # so release the relay's head of line as soon as the frame ends.
        if tx.kind in ("anc_broadcast", "cope_coded") and self._hol.get(tx.sender) is tx.meta:
            self._hol[tx.sender] = None
        if self._active:
            return
        group, self._group = self._group, []
        self._resolve_group(group)
        self._kick_all()

    # ------------------------------------------------------------------
    # Group resolution: sessions, capture, decode, feedback
    # ------------------------------------------------------------------
    def _resolve_group(self, group: List[_Tx]) -> None:
        """Resolve every reception of one collision group."""
        group_start = min(tx.start for tx in group)
        senders = {tx.sender for tx in group}
        handled: Dict[int, bool] = {}
        for receiver in self.topology.nodes:
            if receiver in senders:
                continue
            components = [
                tx for tx in group if self.topology.in_range(tx.sender, receiver)
            ]
            if not components:
                continue
            self._resolve_receiver(receiver, components, group_start, handled)
        # Any data frame whose intended next hop never examined it (for
        # example because that node was itself transmitting) is lost.
        for tx in group:
            if tx.tx_id in handled:
                continue
            if tx.kind == "data":
                self._data_failed(tx)
            elif tx.kind == "anc_uplink":
                self.report.losses += 1
                self._anc_active = False
            elif tx.kind == "cope_coded":
                self.report.losses += 2
            elif tx.kind == "anc_broadcast":
                self.report.losses += len(tx.meta["truths"])

    def _resolve_receiver(
        self,
        receiver: int,
        components: List[_Tx],
        group_start: float,
        handled: Dict[int, bool],
    ) -> None:
        """Build one receiver's composite, classify it, decode and dispatch."""
        node = self.nodes[receiver]
        session = ReceptionSession(noise_power=node.config.noise_power)
        offsets: Dict[int, int] = {}
        for tx in components:
            link = self.topology.link(tx.sender, receiver)
            offset = int(round(tx.start - group_start))
            offsets[tx.tx_id] = offset + link.propagation_delay
            power = (self.nodes[tx.sender].config.tx_amplitude ** 2) * link.power_gain
            session.add(tx.tx_id, power, tx.start, tx.end)

        # ANC's raison d'etre: the relay never decodes a paired uplink
        # collision — it amplifies and rebroadcasts it (§7.5).
        uplinks = [tx for tx in components if tx.kind == "anc_uplink"]
        if receiver == RELAY and uplinks:
            self._relay_hears_uplink(components, uplinks, group_start, handled)
            return

        kind, primary_id = classify_reception(
            session, self.params.capture_threshold_db
        )
        if kind is ReceptionKind.COLLIDED:
            for tx in components:
                self._component_failed_at(receiver, tx, handled)
            return
        primary = next(tx for tx in components if tx.tx_id == primary_id)
        if self._primary_relevant(receiver, primary):
            combiner = InterferenceCombiner(
                noise_power=node.config.noise_power,
                rng=self.streams.node_stream(receiver, "noise"),
            )
            composite = combiner.combine(
                [
                    (
                        tx.waveform,
                        self.topology.link(tx.sender, receiver),
                        int(round(tx.start - group_start)),
                    )
                    for tx in components
                ],
                tail_padding=24,
            ).signal
            if primary.kind == "anc_broadcast":
                self._decode_anc_broadcast(receiver, primary, composite, handled)
            else:
                self._decode_aligned(
                    receiver, primary, composite, offsets[primary.tx_id], handled
                )
        # Captured: the weaker components die at this receiver.
        for tx in components:
            if tx.tx_id != primary.tx_id:
                self._component_failed_at(receiver, tx, handled)

    @staticmethod
    def _primary_relevant(receiver: int, tx: _Tx) -> bool:
        """Is this receiver a consumer of the frame (vs a mere overhearer)?"""
        if tx.kind == "anc_broadcast":
            return receiver in tx.meta["truths"]
        if tx.kind == "cope_coded":
            return receiver in tx.meta["pair"]
        return receiver == RELAY or (
            tx.sender == RELAY and tx.meta.get("dst") == receiver
        )

    def _relay_hears_uplink(
        self,
        components: List[_Tx],
        uplinks: List[_Tx],
        group_start: float,
        handled: Dict[int, bool],
    ) -> None:
        """The relay turns a clean paired uplink into a broadcast job."""
        relay = self.nodes[RELAY]
        if len(uplinks) == 2 and len(components) == 2:
            combiner = InterferenceCombiner(
                noise_power=relay.config.noise_power,
                rng=self.streams.node_stream(RELAY, "noise"),
            )
            composite = combiner.combine(
                [
                    (
                        tx.waveform,
                        self.topology.link(tx.sender, RELAY),
                        int(round(tx.start - group_start)),
                    )
                    for tx in uplinks
                ],
                tail_padding=24,
            ).signal
            broadcast = relay.amplify_and_forward(composite)
            truths = {
                tx.meta["dst"]: {"packet": tx.meta["packet"], "arrival": tx.meta["arrival"]}
                for tx in uplinks
            }
            self._relay_broadcasts.append(
                {"kind": "anc_broadcast", "waveform": broadcast, "truths": truths}
            )
            for tx in uplinks:
                handled[tx.tx_id] = True
        else:
            # A contaminated exchange (a stray frame joined the group):
            # nothing is recoverable at the relay.
            for tx in components:
                self._component_failed_at(RELAY, tx, handled)
        self._anc_active = False

    # ------------------------------------------------------------------
    # Decode paths
    # ------------------------------------------------------------------
    def _decode_aligned(
        self,
        receiver: int,
        tx: _Tx,
        composite,
        start: int,
        handled: Dict[int, bool],
    ) -> None:
        """Decode a clean/captured frame from its aligned window."""
        parsed = self.decoder.decode_window(composite, start, self.frame_samples)
        if tx.kind == "cope_coded":
            self._account_cope_coded(receiver, tx, parsed, handled)
            return
        truth: Packet = tx.meta["packet"]
        ber = self.decoder.payload_ber(
            parsed.packet.payload if parsed.packet is not None else None, truth.payload
        )
        ok = parsed.payload_crc_ok or ber <= self.params.ber_acceptance
        if tx.meta.get("dst") == receiver and tx.sender == RELAY:
            # Final hop: a relay frame reaching its destination.
            self.report.bers.append(ber)
            handled[tx.tx_id] = True
            if ok:
                self._account_delivery(truth, tx.meta["arrival"])
                self._data_succeeded(tx)
            else:
                self._data_failed(tx)
            return
        if receiver == RELAY and tx.kind in ("data", "anc_uplink"):
            handled[tx.tx_id] = True
            if ok:
                # Store-and-forward: the FEC-repaired copy (the truth
                # packet once BER is within acceptance) enters the buffer.
                self._relay_buffer.append(
                    {
                        "packet": truth,
                        "arrival": tx.meta["arrival"],
                        "dst": tx.meta["dst"],
                        "relay_time": self.sched.now,
                    }
                )
                self._data_succeeded(tx)
                if self._scheduled is None:
                    self._kick_relay()
            else:
                self._data_failed(tx)

    def _decode_anc_broadcast(
        self, receiver: int, tx: _Tx, composite, handled: Dict[int, bool]
    ) -> None:
        """An endpoint decodes the relayed collision through the pipeline."""
        handled[tx.tx_id] = True
        truth_entry = tx.meta["truths"].get(receiver)
        if truth_entry is None:
            return
        truth: Packet = truth_entry["packet"]
        result = self.nodes[receiver].receive(composite)
        decoded = result.packet.payload if result.packet is not None else None
        ber = self.decoder.payload_ber(decoded, truth.payload)
        self.report.bers.append(ber)
        if result.crc_ok or ber <= self.params.ber_acceptance:
            self._account_delivery(truth, truth_entry["arrival"])
        else:
            self.report.losses += 1

    def _account_cope_coded(
        self, receiver: int, tx: _Tx, parsed, handled: Dict[int, bool]
    ) -> None:
        """An endpoint XORs the coded broadcast with its own packet."""
        handled[tx.tx_id] = True
        entry = tx.meta["pair"].get(receiver)
        if entry is None:
            return
        truth: Packet = entry["packet"]
        other = tx.meta["pair"][self._other_endpoint(receiver)]
        side_payload = other["packet"].payload
        if parsed.packet is None or parsed.packet.payload.size != side_payload.size:
            ber = 0.5
        else:
            recovered = np.bitwise_xor(parsed.packet.payload, side_payload).astype(np.uint8)
            ber = float(bit_error_rate(truth.payload, recovered))
        self.report.bers.append(ber)
        if (parsed.payload_crc_ok and parsed.packet is not None) or ber <= self.params.ber_acceptance:
            self._account_delivery(truth, entry["arrival"])
        else:
            self.report.losses += 1

    # ------------------------------------------------------------------
    # Outcome accounting and genie MAC feedback
    # ------------------------------------------------------------------
    def _account_delivery(self, truth: Packet, arrival: float) -> None:
        """Record one end-to-end delivery (bits, delay)."""
        self.report.delivered += 1
        self.report.delivered_bits += truth.payload_length
        self.report.delays.append(self.sched.now - arrival)

    def _component_failed_at(
        self, receiver: int, tx: _Tx, handled: Dict[int, bool]
    ) -> None:
        """A component is unrecoverable at a receiver; account if relevant."""
        if tx.kind == "data" and (
            (tx.sender != RELAY and receiver == RELAY)
            or (tx.sender == RELAY and tx.meta.get("dst") == receiver)
        ):
            handled[tx.tx_id] = True
            self._data_failed(tx)
        elif tx.kind == "anc_uplink" and receiver == RELAY:
            handled[tx.tx_id] = True
            self.report.losses += 1
            self._anc_active = False
        elif tx.kind == "cope_coded" and receiver in tx.meta["pair"]:
            # Each endpoint only loses the packet addressed to *it*.
            handled[tx.tx_id] = True
            self.report.losses += 1
        elif tx.kind == "anc_broadcast" and receiver in tx.meta["truths"]:
            handled[tx.tx_id] = True
            self.report.losses += 1

    def _data_succeeded(self, tx: _Tx) -> None:
        """Genie ACK: the data frame reached its next hop."""
        origin = tx.meta.get("origin")
        if origin is None or self._scheduled is not None:
            return
        self.mac.on_success(self._csma[origin])
        self._hol[origin] = None

    def _data_failed(self, tx: _Tx) -> None:
        """Genie NACK: BEB-retry the data frame, or drop it when exhausted."""
        origin = tx.meta.get("origin")
        if origin is None or self._scheduled is not None:
            # Scheduled MAC has no retransmissions: a lost frame is a loss.
            self.report.losses += 1
            return
        state = self._csma[origin]
        self.mac.on_failure(state)
        if self.mac.exhausted(state):
            self.mac.on_success(state)
            self._hol[origin] = None
            self.report.retry_drops += 1
            return
        self._request_access(origin)
