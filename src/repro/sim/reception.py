"""SINR-segment reception sessions and the capture/collision rules.

When the event core resolves a group of overlapping transmissions at one
receiver, this module decides *what the receiver can make of it* before
any waveform is touched:

* a :class:`ReceptionSession` tracks every component the receiver hears
  (power, start, end) and cuts the primary component's span into
  :class:`SinrSegment` pieces at each interferer boundary — the
  ReceptionSession/segment bookkeeping of the SPE-project exemplar;
* :func:`classify_reception` turns the segment SINRs into a
  :class:`ReceptionKind`: ``CLEAN`` (no interferer), ``CAPTURED`` (the
  strongest component stays above the capture threshold in every
  segment, the LoRa ``power_collision`` rule), ``ANC_COLLISION`` (a
  two-way collision the receiver can hand to the ANC pipeline because it
  knows one of the frames), or ``COLLIDED`` (nothing recoverable —
  amplify-and-forward territory, §7.5).

The actual demodulation is delegated to :class:`DecodeService`, which
runs the existing PHY: the :class:`~repro.modulation.msk.MSKDemodulator`
followed by :class:`~repro.framing.frame.Deframer`.  ANC collisions go
through the full :class:`~repro.anc.pipeline.ReceivePipeline` on the node
instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.framing.frame import Deframer, DeframeResult
from repro.modulation.msk import MSKDemodulator
from repro.signal.samples import ComplexSignal
from repro.utils.bits import bit_error_rate

__all__ = [
    "DecodeService",
    "ReceptionComponent",
    "ReceptionKind",
    "ReceptionSession",
    "SinrSegment",
    "classify_reception",
]


class ReceptionKind(enum.Enum):
    """What the capture/collision rules concluded about a reception."""

    CLEAN = "clean"
    CAPTURED = "captured"
    ANC_COLLISION = "anc_collision"
    COLLIDED = "collided"


@dataclass(frozen=True)
class ReceptionComponent:
    """One transmission as heard at the receiver.

    Attributes
    ----------
    tx_id:
        Identifier of the transmission (the simulation's counter).
    power:
        Received power of the component (transmit power times the link's
        power gain).
    start, end:
        The component's span at the receiver, in absolute samples.
    """

    tx_id: int
    power: float
    start: float
    end: float

    def __post_init__(self) -> None:
        """Validate the component geometry."""
        if self.power < 0:
            raise ConfigurationError("component power must be non-negative")
        if self.end <= self.start:
            raise ConfigurationError("component must have positive duration")


@dataclass(frozen=True)
class SinrSegment:
    """A maximal span of one component with a constant interferer set."""

    start: float
    end: float
    interferer_count: int
    sinr_db: float


@dataclass
class ReceptionSession:
    """Interferer tracking for one receiver over one collision group.

    Parameters
    ----------
    noise_power:
        The receiver's thermal noise floor (linear power).
    """

    noise_power: float
    components: List[ReceptionComponent] = field(default_factory=list)

    def add(self, tx_id: int, power: float, start: float, end: float) -> None:
        """Register one heard transmission."""
        self.components.append(
            ReceptionComponent(tx_id=int(tx_id), power=float(power), start=float(start), end=float(end))
        )

    # ------------------------------------------------------------------
    def component(self, tx_id: int) -> ReceptionComponent:
        """Look up a component by transmission id."""
        for comp in self.components:
            if comp.tx_id == tx_id:
                return comp
        raise SimulationError(f"transmission {tx_id} not part of this session")

    def strongest(self) -> ReceptionComponent:
        """The highest-power component (ties broken by earliest tx_id)."""
        if not self.components:
            raise SimulationError("session has no components")
        return max(self.components, key=lambda c: (c.power, -c.tx_id))

    def segments_for(self, tx_id: int) -> List[SinrSegment]:
        """Cut one component's span at every interferer boundary.

        Each returned segment has a constant set of concurrent
        interferers, so its SINR is a single number — the SPE-project
        ``ReceptionSession`` bookkeeping.
        """
        primary = self.component(tx_id)
        others = [c for c in self.components if c.tx_id != tx_id]
        cuts = {primary.start, primary.end}
        for other in others:
            if other.start < primary.end and other.end > primary.start:
                cuts.add(min(max(other.start, primary.start), primary.end))
                cuts.add(min(max(other.end, primary.start), primary.end))
        edges = sorted(cuts)
        segments: List[SinrSegment] = []
        for left, right in zip(edges[:-1], edges[1:]):
            if right <= left:
                continue
            midpoint = 0.5 * (left + right)
            interference = sum(
                other.power for other in others if other.start < midpoint < other.end
            )
            count = sum(1 for other in others if other.start < midpoint < other.end)
            sinr = primary.power / max(interference + self.noise_power, 1e-30)
            segments.append(
                SinrSegment(
                    start=left,
                    end=right,
                    interferer_count=count,
                    sinr_db=float(10.0 * np.log10(max(sinr, 1e-30))),
                )
            )
        return segments

    def min_sinr_db(self, tx_id: int) -> float:
        """Worst-segment SINR of a component (the capture decision input)."""
        segments = self.segments_for(tx_id)
        return min(segment.sinr_db for segment in segments)


def classify_reception(
    session: ReceptionSession,
    capture_threshold_db: float,
    known_tx_ids: Sequence[int] = (),
) -> Tuple[ReceptionKind, Optional[int]]:
    """Apply the capture/collision rules to one session.

    Parameters
    ----------
    session:
        The receiver's component bookkeeping for the group.
    capture_threshold_db:
        Minimum worst-segment SINR at which the strongest component is
        decodable despite interference (the LoRa ``power_collision``
        margin; ISO-style thresholds sit around 6-10 dB).
    known_tx_ids:
        Transmissions whose frames the receiver already knows (its own
        earlier transmissions or overheard ones) — what makes a two-way
        collision ANC-decodable rather than lost.

    Returns
    -------
    (kind, primary_tx_id):
        The classification plus the component to decode: the single/
        strongest component for ``CLEAN``/``CAPTURED``, the *unknown*
        component for ``ANC_COLLISION``, ``None`` for ``COLLIDED``.
    """
    if not session.components:
        raise SimulationError("cannot classify an empty session")
    if len(session.components) == 1:
        return ReceptionKind.CLEAN, session.components[0].tx_id
    strongest = session.strongest()
    if session.min_sinr_db(strongest.tx_id) >= capture_threshold_db:
        return ReceptionKind.CAPTURED, strongest.tx_id
    if len(session.components) == 2:
        known = [c for c in session.components if c.tx_id in known_tx_ids]
        unknown = [c for c in session.components if c.tx_id not in known_tx_ids]
        if len(known) == 1 and len(unknown) == 1:
            return ReceptionKind.ANC_COLLISION, unknown[0].tx_id
    return ReceptionKind.COLLIDED, None


class DecodeService:
    """Aligned frame decoding through the MSK demodulator and deframer.

    The event core knows exactly where each frame starts inside the
    composite it built (the MAC scheduled the offsets), so clean and
    captured receptions are decoded from an aligned window — no pilot
    search.

    Parameters
    ----------
    deframer:
        Frame parser shared by every decode (defaults to the standard
        layout).
    """

    def __init__(self, deframer: Optional[Deframer] = None) -> None:
        """Build the demodulator and the shared deframer."""
        self.deframer = deframer if deframer is not None else Deframer()
        self._demodulator = MSKDemodulator(samples_per_symbol=1)

    # ------------------------------------------------------------------
    def decode_window(
        self, composite: ComplexSignal, start: int, frame_samples: int
    ) -> DeframeResult:
        """Decode one aligned frame window out of a composite waveform."""
        return self.decode_windows([(composite, start, frame_samples)])[0]

    def decode_windows(
        self, windows: Sequence[Tuple[ComplexSignal, int, int]]
    ) -> List[DeframeResult]:
        """Decode several aligned windows, in order.

        Each request is ``(composite, start_sample, frame_samples)``; every
        request is validated before any window is decoded.
        """
        slices: List[ComplexSignal] = []
        for composite, start, frame_samples in windows:
            if start < 0 or frame_samples <= 0:
                raise ConfigurationError("decode windows need start >= 0 and length > 0")
            slices.append(composite.slice(int(start), int(start) + int(frame_samples)))
        return [self.deframer.parse(self._demodulator.demodulate(window)) for window in slices]

    # ------------------------------------------------------------------
    @staticmethod
    def payload_ber(decoded: Optional[np.ndarray], truth: np.ndarray) -> float:
        """Payload BER against the ground truth; a missing decode is 0.5."""
        if decoded is None or decoded.size != truth.size:
            return 0.5
        return float(bit_error_rate(truth, decoded))
