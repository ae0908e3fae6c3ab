"""Analog Network Coding core: decoding interfered MSK signals.

This package implements the paper's primary contribution (§6 and §7):

* :mod:`repro.anc.lemma` — the two-solution phase decomposition of an
  interfered sample (Lemma 6.1),
* :mod:`repro.anc.amplitude` — estimating the two component amplitudes
  ``A`` and ``B`` from the received signal's energy statistics (Eqs. 5-6),
* :mod:`repro.anc.matching` — resolving the per-sample solution ambiguity
  by matching against the known signal's phase differences (Eqs. 7-8),
* :mod:`repro.anc.decoder` — the full interference decoder, forward
  (Alice) and backward (Bob, §7.4),
* :mod:`repro.anc.alignment` — pilot-based alignment of the known signal
  and detection of where the second packet starts (§7.2),
* :mod:`repro.anc.pipeline` — the complete receive chain of Fig. 8 /
  Algorithm 1 (detection, classification, header decode, ANC decode).
"""

from repro.anc.lemma import PhaseSolutions, phase_solutions, interference_cosine
from repro.anc.amplitude import (
    AmplitudeEstimate,
    estimate_amplitudes,
    estimate_amplitudes_with_known,
    mean_energy,
    sigma_statistic,
)
from repro.anc.matching import MatchResult, match_phase_differences
from repro.anc.decoder import (
    ANCDecoder,
    DecoderConfig,
    DecodeDiagnostics,
    InterferenceDecoder,
    SubtractionDecoder,
)
from repro.anc.alignment import (
    AlignmentResult,
    align_known_frame,
    find_interference_start,
    refine_unknown_offset,
)
from repro.anc.pipeline import ReceivePipeline, ReceiveResult, ReceiveOutcome

__all__ = [
    "ANCDecoder",
    "AlignmentResult",
    "AmplitudeEstimate",
    "DecodeDiagnostics",
    "DecoderConfig",
    "InterferenceDecoder",
    "MatchResult",
    "PhaseSolutions",
    "ReceiveOutcome",
    "ReceivePipeline",
    "ReceiveResult",
    "SubtractionDecoder",
    "align_known_frame",
    "estimate_amplitudes",
    "estimate_amplitudes_with_known",
    "find_interference_start",
    "interference_cosine",
    "match_phase_differences",
    "mean_energy",
    "phase_solutions",
    "refine_unknown_offset",
    "sigma_statistic",
]
