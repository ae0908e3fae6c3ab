"""Exception hierarchy for the ANC reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes that matter
operationally (e.g. a CRC failure vs. a missing known packet).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class ModulationError(ReproError):
    """Raised when modulation or demodulation cannot proceed."""


class FramingError(ReproError):
    """Raised when a frame cannot be built or parsed."""


class HeaderError(FramingError):
    """Raised when a frame header fails to parse or validate."""


class PilotNotFoundError(FramingError):
    """Raised when the pilot sequence cannot be located in a received signal."""


class CodingError(ReproError):
    """Raised by the error-control coding layer (CRC/FEC)."""


class CRCError(CodingError):
    """Raised when a CRC check fails on a decoded frame."""


class DecodingError(ReproError):
    """Raised when the ANC interference decoder cannot decode a signal."""


class KnownPacketMissingError(DecodingError):
    """Raised when the sent-packet buffer has no copy of the interfering packet."""


class SynchronizationError(DecodingError):
    """Raised when the known signal cannot be aligned with the received signal."""


class DetectionError(ReproError):
    """Raised by packet / interference detection when input is unusable."""


class ChannelError(ReproError):
    """Raised by channel models on invalid use (e.g. negative noise power)."""


class TopologyError(ReproError):
    """Raised when a network topology is malformed for the requested protocol."""


class SimulationError(ReproError):
    """Raised when the network simulator reaches an inconsistent state."""


class ProtocolError(ReproError):
    """Raised when a protocol implementation is asked to do something unsupported."""


class CapacityError(ReproError):
    """Raised by the capacity-analysis module on invalid SNR/parameter inputs."""
