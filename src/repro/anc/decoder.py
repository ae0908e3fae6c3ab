"""The ANC interference decoder (§6, §7.4).

Given the composite waveform of a two-packet collision and the bits of the
packet it already knows (its own earlier transmission, or an overheard
one), the decoder recovers the bits of the *other* packet:

1. estimate the two received amplitudes ``A`` (known) and ``B`` (unknown)
   from the energy statistics of the overlap region (Eqs. 5-6), using the
   interference-free head as a labelling hint;
2. for the interfered sample intervals, compute both Lemma 6.1 phase
   solutions, form the four candidate phase-difference pairs, pick the one
   whose known-signal difference best matches the regenerated
   ``delta theta_s`` (Eqs. 7-8), and slice the paired ``delta phi``;
3. for the sample intervals where only the unknown signal is present
   (before the known packet started or after it ended), fall back to
   standard differential MSK demodulation.

The decoder works "forward" when the known packet starts first (Alice's
case).  When the known packet starts *second* (Bob's case, §7.4) the same
procedure is run backwards: the received samples and the known bit
sequence are reversed — which negates every phase difference and therefore
inverts the slicing rule — and the decoded bits are un-reversed at the end.

A naive :class:`SubtractionDecoder` is also provided.  It estimates the
known signal's complex channel coefficient, reconstructs the interfering
waveform, subtracts it and runs plain MSK demodulation — the fragile
strawman the paper argues against in §6; the ablation benchmark compares
the two under channel-estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.anc.amplitude import (
    AmplitudeEstimate,
    estimate_amplitudes_with_known,
    mean_energy,
    sigma_statistic,
)
from repro.anc.lemma import phase_solutions
from repro.anc.matching import match_phase_differences
from repro.backend import Backend, resolve_backend
from repro.exceptions import DecodingError
from repro.modulation.batch import batch_expected_phase_differences
from repro.modulation.msk import expected_phase_differences
from repro.signal.batch import BatchLike, ensure_batch_array
from repro.signal.samples import ComplexSignal
from repro.utils.validation import ensure_bit_array, ensure_bit_matrix


@dataclass(frozen=True)
class DecoderConfig:
    """Tunable parameters of the interference decoder.

    Attributes
    ----------
    min_head_samples:
        Minimum number of interference-free head samples needed before the
        head is trusted as a direct amplitude measurement for the known
        signal.
    amplitude_method:
        How the two received amplitudes are obtained:

        * ``"hybrid"`` (default) — measure the known signal's amplitude
          ``A`` directly from the interference-free head (or tail) and
          derive ``B`` from the mean-energy relation ``mu = A^2 + B^2``
          (Eq. 5).  This uses the partial-overlap structure the protocol
          already enforces and is robust even when the two signals'
          relative phase barely rotates over the packet.
        * ``"sigma"`` — the paper's two-statistic estimator (Eqs. 5-6)
          applied to the overlap region, with the clean head used only to
          resolve which amplitude belongs to the known signal.
        * ``"oracle"`` — bypass estimation and use ``amplitude_oracle``;
          for the ablation that isolates estimation error.
    amplitude_oracle:
        The ``(A, B)`` pair used when ``amplitude_method == "oracle"``.
    """

    min_head_samples: int = 8
    amplitude_method: str = "hybrid"
    amplitude_oracle: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.amplitude_method not in {"hybrid", "sigma", "oracle"}:
            raise DecodingError(
                f"unknown amplitude_method {self.amplitude_method!r}; "
                "expected 'hybrid', 'sigma' or 'oracle'"
            )
        if self.amplitude_method == "oracle" and self.amplitude_oracle is None:
            raise DecodingError("amplitude_method='oracle' requires amplitude_oracle")


@dataclass
class DecodeDiagnostics:
    """Per-decode diagnostics useful for experiments and debugging."""

    amplitude_estimate: Optional[AmplitudeEstimate] = None
    overlap_samples: int = 0
    interfered_bits: int = 0
    clean_bits: int = 0
    mean_match_error: float = 0.0
    reversed_decode: bool = False


def _interval_runs(
    known_offset: int, known_end: int, unknown_offset: int, unknown_n_bits: int
) -> List[Tuple[int, int, bool]]:
    """Maximal runs ``(i, j, interfered)`` of the unknown frame's bit intervals.

    Bit interval ``i`` spans samples ``n = unknown_offset + i`` and
    ``n + 1``; it is *interfered* when both samples lie inside the known
    frame's ``[known_offset, known_end)`` and *clean* otherwise.  The runs
    cover ``[0, unknown_n_bits)`` in order and depend on the geometry
    alone, never on the samples.
    """
    n = unknown_offset + np.arange(unknown_n_bits)
    interfered = (n >= known_offset) & (n + 1 < known_end)
    edges = np.flatnonzero(np.diff(interfered)) + 1
    starts = [0, *edges.tolist()]
    ends = [*edges.tolist(), unknown_n_bits]
    return [(i, j, bool(interfered[i])) for i, j in zip(starts, ends)]


class InterferenceDecoder:
    """Decode the unknown half of a two-packet collision.

    Parameters
    ----------
    config:
        Decoder tunables (:class:`DecoderConfig`); defaults apply when
        omitted.
    backend:
        Compute backend for the batched kernels — a registry name, an
        already-resolved :class:`~repro.backend.Backend`, or ``None`` to
        resolve the ambient backend (:func:`repro.backend.use_backend`
        scope, else ``numpy``) at each :meth:`decode_batch` call.  The
        scalar :meth:`decode` path is the fixed reference implementation
        and never changes with the backend.
    """

    def __init__(
        self,
        config: Optional[DecoderConfig] = None,
        backend: Union[None, str, Backend] = None,
    ) -> None:
        self.config = config if config is not None else DecoderConfig()
        self.backend = backend

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def decode(
        self,
        received: ComplexSignal,
        known_bits,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
    ) -> Tuple[np.ndarray, DecodeDiagnostics]:
        """Decode the unknown packet's bits out of the composite waveform.

        Parameters
        ----------
        received:
            The composite received waveform (forward time order).
        known_bits:
            The full frame bits of the packet the receiver already knows.
        known_offset:
            Sample index (within ``received``) of the known frame's
            reference sample.
        unknown_offset:
            Sample index of the unknown frame's reference sample.
        unknown_n_bits:
            Number of bits to decode for the unknown frame.

        Returns
        -------
        (bits, diagnostics)
            The decoded unknown frame bits, in forward order, plus
            diagnostics.  The decoder automatically runs backwards when the
            known frame starts after the unknown one.
        """
        known = ensure_bit_array(known_bits, "known_bits")
        if unknown_n_bits <= 0:
            raise DecodingError("unknown_n_bits must be positive")
        if known_offset < 0 or unknown_offset < 0:
            raise DecodingError("frame offsets must be non-negative")
        if known_offset <= unknown_offset:
            return self._decode_forward(
                received, known, known_offset, unknown_offset, unknown_n_bits
            )
        return self._decode_backward(
            received, known, known_offset, unknown_offset, unknown_n_bits
        )

    def decode_batch(
        self,
        received: BatchLike,
        known_bits,
        known_offsets,
        unknown_offsets,
        unknown_n_bits: int,
    ) -> Tuple[np.ndarray, List[DecodeDiagnostics]]:
        """Decode a whole batch of two-packet collisions at once.

        The batched fast path of :meth:`decode`: trials sharing a collision
        geometry (the same offset pair, hence the same interfered/clean
        interval partition and decode direction) are vectorized together —
        Lemma 6.1 phase solutions, Eq. 7-8 matching and clean-interval
        slicing all run as single 2D numpy operations over the trial axis,
        while the Eq. 5-6 amplitude estimation runs through the scalar
        reference helpers per trial.  Row ``i`` of the output is
        **bit-identical** to ``decode(received.row(i), ...)`` with trial
        ``i``'s arguments (enforced by
        ``tests/properties/test_batch_equivalence.py``).

        Parameters
        ----------
        received:
            Composite received waveforms, a
            :class:`~repro.signal.batch.SignalBatch` or a 2D
            ``(n_trials, n_samples)`` complex array (forward time order).
        known_bits:
            One known frame's bits per trial, shape
            ``(n_trials, n_known_bits)``.
        known_offsets / unknown_offsets:
            Sample index of each frame's reference sample, either one int
            shared by the whole batch or one int per trial.
        unknown_n_bits:
            Number of bits to decode for every unknown frame.

        Returns
        -------
        (bits, diagnostics)
            Decoded unknown-frame bits, shape
            ``(n_trials, unknown_n_bits)``, in forward order, plus one
            :class:`DecodeDiagnostics` per trial.
        """
        samples = ensure_batch_array(received, "received")
        known = ensure_bit_matrix(known_bits, "known_bits")
        n_trials = samples.shape[0]
        if known.shape[0] != n_trials:
            raise DecodingError(
                f"known_bits has {known.shape[0]} rows for {n_trials} received waveforms"
            )
        if unknown_n_bits <= 0:
            raise DecodingError("unknown_n_bits must be positive")
        known_offset_arr = self._offset_column(known_offsets, n_trials, "known_offsets")
        unknown_offset_arr = self._offset_column(unknown_offsets, n_trials, "unknown_offsets")
        backend = resolve_backend(self.backend)

        bits = np.zeros((n_trials, unknown_n_bits), dtype=np.uint8)
        diagnostics: List[Optional[DecodeDiagnostics]] = [None] * n_trials
        geometries = sorted(set(zip(known_offset_arr.tolist(), unknown_offset_arr.tolist())))
        for known_offset, unknown_offset in geometries:
            group = np.flatnonzero(
                (known_offset_arr == known_offset) & (unknown_offset_arr == unknown_offset)
            )
            if known_offset <= unknown_offset:
                group_bits, group_diagnostics = self._decode_forward_batch(
                    samples[group],
                    known[group],
                    known_offset,
                    unknown_offset,
                    unknown_n_bits,
                    backend=backend,
                )
            else:
                group_bits, group_diagnostics = self._decode_backward_batch(
                    samples[group],
                    known[group],
                    known_offset,
                    unknown_offset,
                    unknown_n_bits,
                    backend=backend,
                )
            bits[group] = group_bits
            for position, trial in enumerate(group):
                diagnostics[trial] = group_diagnostics[position]
        return bits, diagnostics

    @staticmethod
    def _offset_column(offsets, n_trials: int, name: str) -> np.ndarray:
        """Broadcast/validate a scalar-or-per-trial offset argument."""
        arr = np.asarray(offsets)
        if not np.issubdtype(arr.dtype, np.integer):
            raise DecodingError(f"{name} must be integers")
        if arr.ndim == 0:
            arr = np.full(n_trials, int(arr))
        if arr.ndim != 1 or arr.size != n_trials:
            raise DecodingError(f"{name} must be one int or one int per trial")
        if np.any(arr < 0):
            raise DecodingError("frame offsets must be non-negative")
        return arr.astype(int)

    # ------------------------------------------------------------------
    # Forward decoding (known packet starts first)
    # ------------------------------------------------------------------
    def _decode_forward(
        self,
        received: ComplexSignal,
        known_bits: np.ndarray,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
        reversed_decode: bool = False,
    ) -> Tuple[np.ndarray, DecodeDiagnostics]:
        samples = received.samples
        known_n_samples = known_bits.size + 1
        known_end = known_offset + known_n_samples
        unknown_end = unknown_offset + unknown_n_bits + 1
        if unknown_end > samples.size:
            raise DecodingError(
                "received waveform is too short for the requested unknown frame"
            )

        diagnostics = DecodeDiagnostics(reversed_decode=reversed_decode)
        amplitude_a, amplitude_b = self._estimate_amplitudes(
            samples, known_offset, known_end, unknown_offset, unknown_end, diagnostics
        )

        known_diffs_full = expected_phase_differences(known_bits)
        bits = np.zeros(unknown_n_bits, dtype=np.uint8)
        match_errors = []

        # Decode each maximal interfered or clean run in one shot.
        for i, j, interfered in _interval_runs(
            known_offset, known_end, unknown_offset, unknown_n_bits
        ):
            first_sample = unknown_offset + i
            last_sample = unknown_offset + j  # inclusive end sample of the run
            block = samples[first_sample : last_sample + 1]
            if interfered:
                known_indices = np.arange(first_sample, last_sample) - known_offset
                known_diffs = known_diffs_full[known_indices]
                solutions = phase_solutions(block, amplitude_a, amplitude_b)
                result = match_phase_differences(solutions, known_diffs)
                bits[i:j] = result.bits
                match_errors.append(result.match_errors)
                diagnostics.interfered_bits += j - i
            else:
                ratio = block[1:] * np.conj(block[:-1])
                bits[i:j] = (np.angle(ratio) >= 0).astype(np.uint8)
                diagnostics.clean_bits += j - i

        if match_errors:
            diagnostics.mean_match_error = float(np.mean(np.concatenate(match_errors)))
        return bits, diagnostics

    # ------------------------------------------------------------------
    # Backward decoding (known packet starts second, §7.4)
    # ------------------------------------------------------------------
    def _decode_backward(
        self,
        received: ComplexSignal,
        known_bits: np.ndarray,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
    ) -> Tuple[np.ndarray, DecodeDiagnostics]:
        samples = received.samples
        total = samples.size
        reversed_signal = ComplexSignal(samples[::-1])
        known_n_samples = known_bits.size + 1
        unknown_n_samples = unknown_n_bits + 1
        # In the reversed stream, a frame that occupied samples
        # [offset, offset + n) now occupies [total - offset - n, total - offset).
        rev_known_offset = total - known_offset - known_n_samples
        rev_unknown_offset = total - unknown_offset - unknown_n_samples
        if rev_known_offset < 0 or rev_unknown_offset < 0:
            raise DecodingError("frame extends beyond the received waveform")
        # Reversing time reverses the bit order and negates every phase
        # difference; for MSK that is exactly a bit flip.
        rev_known_bits = (1 - known_bits[::-1]).astype(np.uint8)
        rev_bits, diagnostics = self._decode_forward(
            reversed_signal,
            rev_known_bits,
            rev_known_offset,
            rev_unknown_offset,
            unknown_n_bits,
            reversed_decode=True,
        )
        forward_bits = (1 - rev_bits[::-1]).astype(np.uint8)
        return forward_bits, diagnostics

    # ------------------------------------------------------------------
    # Batched decoding (one geometry group at a time)
    # ------------------------------------------------------------------
    def _decode_forward_batch(
        self,
        samples: np.ndarray,
        known_bits: np.ndarray,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
        reversed_decode: bool = False,
        backend: Optional[Backend] = None,
    ) -> Tuple[np.ndarray, List[DecodeDiagnostics]]:
        """Vectorized :meth:`_decode_forward` over trials sharing a geometry.

        ``samples`` is the group's ``(n_trials, n_samples)`` block and
        ``known_bits`` its ``(n_trials, n_known_bits)`` rows.  The
        interval partition is geometry-only, so every trial shares the
        same interfered/clean runs; each run is decoded for all trials in
        one batched kernel call through ``backend`` (the resolved compute
        backend; ``None`` resolves the ambient one).  Amplitudes come
        from the scalar estimator per trial, which keeps them
        bit-identical by construction whatever the backend.
        """
        if backend is None:
            backend = resolve_backend(self.backend)
        n_trials = samples.shape[0]
        known_n_samples = known_bits.shape[1] + 1
        known_end = known_offset + known_n_samples
        unknown_end = unknown_offset + unknown_n_bits + 1
        if unknown_end > samples.shape[1]:
            raise DecodingError(
                "received waveform is too short for the requested unknown frame"
            )

        diagnostics = [
            DecodeDiagnostics(reversed_decode=reversed_decode) for _ in range(n_trials)
        ]
        amplitudes_a, amplitudes_b = self._estimate_amplitudes_group(
            samples, known_offset, known_end, unknown_offset, unknown_end, diagnostics
        )

        known_diffs_full = batch_expected_phase_differences(known_bits)
        bits = np.zeros((n_trials, unknown_n_bits), dtype=np.uint8)
        match_errors: List[np.ndarray] = []

        # Same maximal-run partition as the scalar path; it depends only
        # on the (shared) geometry, never on the per-trial samples.
        for i, j, interfered in _interval_runs(
            known_offset, known_end, unknown_offset, unknown_n_bits
        ):
            first_sample = unknown_offset + i
            last_sample = unknown_offset + j  # inclusive end sample of the run
            block = samples[:, first_sample : last_sample + 1]
            if interfered:
                known_indices = np.arange(first_sample, last_sample) - known_offset
                known_diffs = known_diffs_full[:, known_indices]
                solutions = backend.phase_solutions(block, amplitudes_a, amplitudes_b)
                result = backend.match_phase_differences(solutions, known_diffs)
                bits[:, i:j] = result.bits
                match_errors.append(result.match_errors)
                for diagnostic in diagnostics:
                    diagnostic.interfered_bits += j - i
            else:
                bits[:, i:j] = backend.differential_bits(block)
                for diagnostic in diagnostics:
                    diagnostic.clean_bits += j - i

        if match_errors:
            # Same concatenate-then-mean the scalar path performs per trial.
            for trial in range(n_trials):
                diagnostics[trial].mean_match_error = float(
                    np.mean(np.concatenate([errors[trial] for errors in match_errors]))
                )
        return bits, diagnostics

    def _decode_backward_batch(
        self,
        samples: np.ndarray,
        known_bits: np.ndarray,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
        backend: Optional[Backend] = None,
    ) -> Tuple[np.ndarray, List[DecodeDiagnostics]]:
        """Vectorized §7.4 backward decoding for one geometry group.

        Identical transformation to the scalar :meth:`_decode_backward` —
        reverse time, flip the known bits, decode forward, un-reverse —
        applied to the whole trial block at once, through ``backend``.
        """
        total = samples.shape[1]
        known_n_samples = known_bits.shape[1] + 1
        unknown_n_samples = unknown_n_bits + 1
        rev_known_offset = total - known_offset - known_n_samples
        rev_unknown_offset = total - unknown_offset - unknown_n_samples
        if rev_known_offset < 0 or rev_unknown_offset < 0:
            raise DecodingError("frame extends beyond the received waveform")
        rev_known_bits = (1 - known_bits[:, ::-1]).astype(np.uint8)
        # Materialize the reversed block contiguously, exactly like the
        # scalar path's ComplexSignal copy: numpy routes strided views
        # through different (scalar-libm) kernels whose last-ULP rounding
        # can differ from the contiguous SIMD path, which would break the
        # bit-identity contract.
        rev_samples = np.ascontiguousarray(samples[:, ::-1])
        rev_bits, diagnostics = self._decode_forward_batch(
            rev_samples,
            rev_known_bits,
            rev_known_offset,
            rev_unknown_offset,
            unknown_n_bits,
            reversed_decode=True,
            backend=backend,
        )
        forward_bits = (1 - rev_bits[:, ::-1]).astype(np.uint8)
        return forward_bits, diagnostics

    def _estimate_amplitudes_group(
        self,
        samples: np.ndarray,
        known_offset: int,
        known_end: int,
        unknown_offset: int,
        unknown_end: int,
        diagnostics: List[DecodeDiagnostics],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-trial ``(A, B)`` estimates for one geometry group, batched.

        Bit-identical to calling :meth:`_estimate_amplitudes` per trial:
        the region means are row-reductions over the same values (numpy
        reduces the last axis of a 2D array row by row, with the same
        pairwise blocking as the 1D case), and the data-dependent Eq. 6
        statistic — whose above-the-mean subset length varies per trial —
        stays a per-trial computation on the shared energy rows.
        """
        n_trials = samples.shape[0]
        overlap_start = max(known_offset, unknown_offset)
        overlap_end = min(known_end, unknown_end)
        overlap_samples = max(0, overlap_end - overlap_start)
        for diagnostic in diagnostics:
            diagnostic.overlap_samples = overlap_samples
        if overlap_samples < 4:
            raise DecodingError(
                "packets overlap by fewer than 4 samples; nothing to decode with ANC"
            )
        if self.config.amplitude_method == "oracle":
            oracle_a, oracle_b = self.config.amplitude_oracle
            return (
                np.full(n_trials, float(oracle_a)),
                np.full(n_trials, float(oracle_b)),
            )

        overlap = samples[:, overlap_start:overlap_end]
        head = samples[:, known_offset:unknown_offset]
        tail = samples[:, known_end:unknown_end]
        head_amplitudes = (
            np.mean(np.abs(head), axis=1)
            if head.shape[1] >= self.config.min_head_samples
            else None
        )
        tail_amplitudes = (
            np.mean(np.abs(tail), axis=1)
            if tail.shape[1] >= self.config.min_head_samples
            else None
        )

        amplitudes_a = np.empty(n_trials, dtype=float)
        amplitudes_b = np.empty(n_trials, dtype=float)
        if self.config.amplitude_method == "hybrid" and (
            head_amplitudes is not None or tail_amplitudes is not None
        ):
            energy = np.abs(overlap) ** 2
            mu_rows = np.mean(energy, axis=1)
            for trial in range(n_trials):
                mu = float(mu_rows[trial])
                if head_amplitudes is not None:
                    amplitude_a = float(head_amplitudes[trial])
                    amplitude_b = float(np.sqrt(max(mu - amplitude_a ** 2, 1e-12)))
                else:
                    amplitude_b = float(tail_amplitudes[trial])
                    amplitude_a = float(np.sqrt(max(mu - amplitude_b ** 2, 1e-12)))
                estimate = AmplitudeEstimate(
                    amplitude_a=amplitude_a,
                    amplitude_b=amplitude_b,
                    mu=mu,
                    sigma=self._sigma_from_energy(energy[trial], mu),
                )
                diagnostics[trial].amplitude_estimate = estimate
                amplitudes_a[trial] = amplitude_a
                amplitudes_b[trial] = amplitude_b
            return amplitudes_a, amplitudes_b

        # "sigma" method, or "hybrid" degraded to it (no clean edges):
        # inherently per-trial (the Eq. 6 statistic is data-dependent).
        for trial in range(n_trials):
            head_amp = (
                float(head_amplitudes[trial]) if head_amplitudes is not None else None
            )
            tail_amp = (
                float(tail_amplitudes[trial]) if tail_amplitudes is not None else None
            )
            amplitudes_a[trial], amplitudes_b[trial] = self._estimate_sigma(
                overlap[trial], head_amp, tail_amp, diagnostics[trial]
            )
        return amplitudes_a, amplitudes_b

    @staticmethod
    def _sigma_from_energy(energy: np.ndarray, mu: float) -> float:
        """Eq. 6 statistic from a precomputed energy row.

        Same arithmetic as :func:`repro.anc.amplitude.sigma_statistic`
        with ``|y|^2`` already materialized (the batch path shares one
        energy array across the mean and sigma statistics).
        """
        above = energy[energy > mu]
        if above.size == 0:
            return mu
        return float(2.0 * np.sum(above) / energy.size)

    # ------------------------------------------------------------------
    # Amplitude estimation
    # ------------------------------------------------------------------
    def _estimate_amplitudes(
        self,
        samples: np.ndarray,
        known_offset: int,
        known_end: int,
        unknown_offset: int,
        unknown_end: int,
        diagnostics: DecodeDiagnostics,
    ) -> Tuple[float, float]:
        overlap_start = max(known_offset, unknown_offset)
        overlap_end = min(known_end, unknown_end)
        diagnostics.overlap_samples = max(0, overlap_end - overlap_start)
        if diagnostics.overlap_samples < 4:
            raise DecodingError(
                "packets overlap by fewer than 4 samples; nothing to decode with ANC"
            )
        if self.config.amplitude_method == "oracle":
            return self.config.amplitude_oracle

        overlap = samples[overlap_start:overlap_end]
        head = samples[known_offset:unknown_offset]
        tail = samples[known_end:unknown_end]
        head_amplitude = (
            float(np.mean(np.abs(head))) if head.size >= self.config.min_head_samples else None
        )
        tail_amplitude = (
            float(np.mean(np.abs(tail))) if tail.size >= self.config.min_head_samples else None
        )

        if self.config.amplitude_method == "hybrid":
            return self._estimate_hybrid(overlap, head_amplitude, tail_amplitude, diagnostics)
        return self._estimate_sigma(overlap, head_amplitude, tail_amplitude, diagnostics)

    def _estimate_hybrid(
        self,
        overlap: np.ndarray,
        head_amplitude: Optional[float],
        tail_amplitude: Optional[float],
        diagnostics: DecodeDiagnostics,
    ) -> Tuple[float, float]:
        """Edge measurement for A, Eq. 5 mean energy for B.

        The interference-free head contains only the known signal, so its
        mean magnitude is a direct measurement of ``A``; the unknown
        amplitude follows from ``mu = A^2 + B^2``.  When only the tail
        (unknown-only) region exists the roles are swapped; with neither,
        the method degrades to the paper's two-statistic estimator.
        """
        mu = mean_energy(overlap)
        if head_amplitude is not None:
            amplitude_a = head_amplitude
            amplitude_b = float(np.sqrt(max(mu - amplitude_a ** 2, 1e-12)))
        elif tail_amplitude is not None:
            amplitude_b = tail_amplitude
            amplitude_a = float(np.sqrt(max(mu - amplitude_b ** 2, 1e-12)))
        else:
            return self._estimate_sigma(overlap, None, None, diagnostics)
        estimate = AmplitudeEstimate(
            amplitude_a=amplitude_a,
            amplitude_b=amplitude_b,
            mu=mu,
            sigma=sigma_statistic(overlap, mu),
        )
        diagnostics.amplitude_estimate = estimate
        return amplitude_a, amplitude_b

    def _estimate_sigma(
        self,
        overlap: np.ndarray,
        head_amplitude: Optional[float],
        tail_amplitude: Optional[float],
        diagnostics: DecodeDiagnostics,
    ) -> Tuple[float, float]:
        """The paper's Eq. 5-6 estimator, with edge hints only for labelling."""
        if head_amplitude is not None:
            estimate = estimate_amplitudes_with_known(overlap, head_amplitude)
        elif tail_amplitude is not None:
            raw = estimate_amplitudes_with_known(overlap, tail_amplitude)
            # The hint matched the unknown signal, so swap the labels.
            estimate = AmplitudeEstimate(
                amplitude_a=raw.amplitude_b,
                amplitude_b=raw.amplitude_a,
                mu=raw.mu,
                sigma=raw.sigma,
            )
        else:
            hint = float(np.sqrt(np.mean(np.abs(overlap) ** 2) / 2.0))
            estimate = estimate_amplitudes_with_known(overlap, hint)
        diagnostics.amplitude_estimate = estimate
        return estimate.amplitude_a, estimate.amplitude_b


#: The paper-facing name of the interference decoder.  ``decode`` is the
#: scalar reference path; ``decode_batch`` is the vectorized fast path.
ANCDecoder = InterferenceDecoder


class SubtractionDecoder:
    """Naive decode-by-subtraction baseline (the §6 strawman).

    The decoder estimates the known signal's complex channel coefficient
    from the interference-free head (least-squares fit of the received head
    against the re-modulated known head), reconstructs the known signal's
    contribution over the whole packet, subtracts it, and runs standard
    differential MSK demodulation on the residue.  With a perfect, constant
    channel this works; any channel drift or estimation error leaves a
    residual that corrupts the weaker signal — which is exactly why the
    paper rejects it in favour of the phase-difference method.
    """

    def __init__(self, min_head_samples: int = 8) -> None:
        self.min_head_samples = int(min_head_samples)

    def decode(
        self,
        received: ComplexSignal,
        known_bits,
        known_offset: int,
        unknown_offset: int,
        unknown_n_bits: int,
        known_amplitude: float = 1.0,
    ) -> np.ndarray:
        """Decode the unknown packet's bits by subtracting the known signal."""
        known = ensure_bit_array(known_bits, "known_bits")
        if known_offset > unknown_offset:
            raise DecodingError(
                "SubtractionDecoder only implements the forward (known-first) case"
            )
        samples = received.samples
        unknown_end = unknown_offset + unknown_n_bits + 1
        if unknown_end > samples.size:
            raise DecodingError("received waveform too short for the unknown frame")

        # Re-modulate the known frame at unit amplitude and zero phase.
        from repro.modulation.msk import MSKModulator

        reference = MSKModulator(amplitude=1.0).modulate(known).samples
        known_end = known_offset + reference.size

        head_length = min(unknown_offset - known_offset, reference.size)
        if head_length < self.min_head_samples:
            raise DecodingError("interference-free head too short to estimate the channel")
        head_rx = samples[known_offset : known_offset + head_length]
        head_ref = reference[:head_length]
        # Least-squares complex gain: h = <rx, ref> / <ref, ref>.
        gain = np.vdot(head_ref, head_rx) / np.vdot(head_ref, head_ref)

        residual = samples.copy()
        residual[known_offset:known_end] -= gain * reference
        block = residual[unknown_offset:unknown_end]
        ratio = block[1:] * np.conj(block[:-1])
        return (np.angle(ratio) >= 0).astype(np.uint8)
