"""The layers the traced run reports, and the public methods wrapped for each.

Layers are named by module.  Each entry of :func:`targets` is
``(owner, attribute, layer, hook)``: the wrapper records a span of
``layer`` around every call, and ``hook(args, result)`` turns one call
into counter increments (the base and the hits of each ratio are counted
where the work happens).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from tracer import RAISED

#: Every layer, in the order the metrics are printed.
LAYERS = (
    "utils.pn",
    "scrambler",
    "coding.crc",
    "framing",
    "modulation",
    "channel",
    "anc.decoder",
    "anc.pipeline",
    "protocols",
    "sim",
    "sim.reception",
    "experiments.engine",
    "results",
    "campaign.store",
    "campaign.runner",
    "campaign.server",
    "api",
)

#: Counters reported beside the layer metrics: ``name -> (hits, base)``
#: for ratios, ``name -> (count, None)`` for plain counts per pass.
COUNTERS = {
    "utils.pn.bits": ("utils.pn.bits", None),
    "coding.crc.bits": ("coding.crc.bits", None),
    "framing.delivered_ratio": ("framing.delivered", "framing.parsed"),
    "anc.decoder.decoded_ratio": ("anc.decoder.decoded", "anc.decoder.attempts"),
    "anc.pipeline.delivered_ratio": ("anc.pipeline.delivered", "anc.pipeline.received"),
    "sim.events": ("sim.events", None),
    "sim.delivered_ratio": ("sim.delivered", "sim.offered"),
    "experiments.engine.cache_hit_ratio": ("engine.cached_trials", "engine.total_trials"),
    "campaign.store.hit_ratio": ("store.hits", "store.reads"),
    "campaign.server.requests": ("server.requests", None),
}


def _ok(result: Any) -> bool:
    return result is not RAISED


def _pn_bits(args: tuple, result: Any) -> List[Tuple[str, float]]:
    return [("utils.pn.bits", float(args[1]))] if _ok(result) else []


def _crc_bits(args: tuple, result: Any) -> List[Tuple[str, float]]:
    return [("coding.crc.bits", float(len(args[1])))] if _ok(result) else []


def _deframed(args: tuple, result: Any) -> List[Tuple[str, float]]:
    delivered = _ok(result) and result.delivered
    return [("framing.parsed", 1.0), ("framing.delivered", float(delivered))]


def _decoded(args: tuple, result: Any) -> List[Tuple[str, float]]:
    return [("anc.decoder.attempts", 1.0), ("anc.decoder.decoded", float(_ok(result)))]


def _received(args: tuple, result: Any) -> List[Tuple[str, float]]:
    delivered = _ok(result) and result.delivered
    return [("anc.pipeline.received", 1.0), ("anc.pipeline.delivered", float(delivered))]


def _sim_report(args: tuple, result: Any) -> List[Tuple[str, float]]:
    if not _ok(result):
        return []
    return [
        ("sim.events", float(result.events)),
        ("sim.offered", float(result.offered)),
        ("sim.delivered", float(result.delivered)),
    ]


def _engine_stats(args: tuple, result: Any) -> List[Tuple[str, float]]:
    stats = args[0].last_stats
    if not _ok(result) or stats is None:
        return []
    return [
        ("engine.total_trials", float(stats.total_trials)),
        ("engine.cached_trials", float(stats.cached_trials)),
    ]


def _store_read(args: tuple, result: Any) -> List[Tuple[str, float]]:
    # Mirrors StoreStats: get_raw is the one read primitive (get calls it),
    # a document counts as a hit, an absent one as a miss.
    hit = _ok(result) and result is not None
    return [("store.reads", 1.0), ("store.hits", float(hit))]


def _request(args: tuple, result: Any) -> List[Tuple[str, float]]:
    return [("server.requests", 1.0)]


def targets() -> List[Tuple[Any, str, str, Any]]:
    """The wrap table, resolved against the imported library."""
    from repro import api
    from repro.anc.decoder import InterferenceDecoder
    from repro.anc.pipeline import ReceivePipeline
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.server import CampaignServer
    from repro.campaign.store import ResultStore
    from repro.channel.interference import InterferenceCombiner
    from repro.channel.link import Link
    from repro.coding.crc import CRC16
    from repro.experiments.engine import ExperimentEngine
    from repro.framing.frame import Deframer, Framer
    from repro.modulation.batch import BatchMSKDemodulator
    from repro.modulation.msk import MSKDemodulator, MSKModulator
    from repro.protocols.cope import CopeRelayProtocol
    from repro.protocols.anc import ANCRelayProtocol
    from repro.protocols.scheduled import ChainPipelineProtocol
    from repro.protocols.traditional import TraditionalRouting
    from repro.results.model import ExperimentResult
    from repro.scrambler.whitening import Scrambler
    from repro.sim.reception import DecodeService
    from repro.sim.simulation import TrafficSimulation
    from repro.utils.pn import PNSequence

    crc_engine = type(CRC16)  # CRC16 and CRC32 share one engine class
    return [
        (PNSequence, "bits", "utils.pn", _pn_bits),
        (Scrambler, "scramble", "scrambler", None),
        (crc_engine, "compute", "coding.crc", _crc_bits),
        (Framer, "build", "framing", None),
        (Deframer, "parse", "framing", _deframed),
        # parse_backward delegates to parse, which already counts delivery.
        (Deframer, "parse_backward", "framing", None),
        (MSKModulator, "modulate", "modulation", None),
        (MSKDemodulator, "demodulate", "modulation", None),
        (BatchMSKDemodulator, "demodulate", "modulation", None),
        (Link, "distort", "channel", None),
        (InterferenceCombiner, "combine", "channel", None),
        (InterferenceDecoder, "decode", "anc.decoder", _decoded),
        (ReceivePipeline, "receive", "anc.pipeline", _received),
        (ANCRelayProtocol, "run", "protocols", None),
        (CopeRelayProtocol, "run", "protocols", None),
        (ChainPipelineProtocol, "run", "protocols", None),
        (TraditionalRouting, "run", "protocols", None),
        (TrafficSimulation, "run", "sim", _sim_report),
        (DecodeService, "decode_windows", "sim.reception", None),
        (ExperimentEngine, "map", "experiments.engine", _engine_stats),
        (ExperimentResult, "to_dict", "results", None),
        (ExperimentResult, "from_dict", "results", None),
        (ExperimentResult, "to_json", "results", None),
        (ResultStore, "get", "campaign.store", None),
        (ResultStore, "get_raw", "campaign.store", _store_read),
        (ResultStore, "put", "campaign.store", None),
        (CampaignRunner, "run", "campaign.runner", None),
        (CampaignRunner, "run_sync", "campaign.runner", None),
        # The request entry point: _handle_connection is bound once when the
        # server starts listening, _dispatch is looked up per request.
        (CampaignServer, "_dispatch", "campaign.server", _request),
        (api, "run", "api", None),
        (api, "run_campaign", "api", None),
    ]
