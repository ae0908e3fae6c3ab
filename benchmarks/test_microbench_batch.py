"""Microbenchmark of the batched PHY fast path against the scalar reference.

Two claims are asserted:

* the batched interference decoder sustains **>= 1.5x** the scalar
  decoder's throughput at ``batch_size=64`` — a deliberately safe floor
  below the ~2x this hardware records, because a pass/fail bar a few
  percent under the recorded value flakes on loaded CI runners.
  *Trajectory* enforcement (catching a real regression from one PR to
  the next) belongs to ``tools/check_bench_regression.py``, which
  compares ``BENCH_phy.json`` against the committed baseline with a 30 %
  tolerance.  The floor was 4x against a recorded ~5x until the scalar
  decoder's interval partition was vectorised: the scalar path (the
  ratio's denominator) fell from a median of 976 to 376 us/trial while
  the batched path held (214 to 196 us/trial), over ten perf-gate runs
  alternating with the previous code on a 2-CPU VM, so the ratio fell
  from a median of 5.28 to 2.03 (range 1.68-2.20) without any batched
  slowdown;
* batching is not a numerical fork: the decoded bits are asserted
  bit-identical to the scalar path right inside the benchmark, so the
  timing can never drift away from the thing the differential suite
  (``tests/properties/test_batch_equivalence.py``) certifies.

The decode kernel is additionally timed once per available compute
backend (``repro.backend``): the numpy numbers stay the gated top-level
metrics, and the per-backend numbers land under ``"backends"`` in
``BENCH_phy.json``.  Digest-neutral backends must reproduce the scalar
bits exactly; ``float32-fast`` must stay inside its declared accuracy
gate.  When numba is actually installed (CI's optional-deps job, which
sets ``ANC_ENFORCE_NUMBA_GATE=1``), the numba backend must clear >= 2x
over the batched numpy decode.

Results are written to ``benchmarks/results/microbench_batch.txt``
(human-readable, timings vary per machine) and to the ``BENCH_phy.json``
trajectory artifact at the repository root — one JSON object per run with
the headline PHY throughput metrics, so successive PRs can be compared.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import write_result

from repro.anc.decoder import InterferenceDecoder
from repro.backend import available_backends, get_backend
from repro.modulation.batch import BatchMSKDemodulator, BatchMSKModulator
from repro.modulation.msk import MSKDemodulator, MSKModulator
from repro.signal.batch import SignalBatch
from repro.signal.samples import ComplexSignal

#: The regression floor: batched decode throughput over scalar at batch
#: 64.  Kept well below the recorded ~2x (median 2.03, lowest of ten runs
#: 1.68) so load noise cannot flake it; check_bench_regression.py owns
#: the tight trajectory comparison.
REQUIRED_DECODER_SPEEDUP = 1.5

#: The optional-deps acceptance bar: JIT decode over batched numpy decode
#: when numba is really installed (enforced only under
#: ``ANC_ENFORCE_NUMBA_GATE=1`` so numpy-only environments stay green).
REQUIRED_NUMBA_SPEEDUP = 2.0

BATCH_SIZE = 64
FRAME_BITS = 512
TRAJECTORY_PATH = Path(__file__).parent.parent / "BENCH_phy.json"


def _best_of(callable_, repeats=5):
    """Best-of-N wall time: the least noisy point estimate for short runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def collision_batch():
    """64 synthetic partial-overlap collisions with known ground truth."""
    rng = np.random.default_rng(20070823)
    known_n_bits = unknown_n_bits = FRAME_BITS
    known_offset, unknown_offset = 0, FRAME_BITS // 5
    total = unknown_offset + unknown_n_bits + 1 + 16
    known_bits = rng.integers(0, 2, (BATCH_SIZE, known_n_bits), dtype=np.uint8)
    unknown_bits = rng.integers(0, 2, (BATCH_SIZE, unknown_n_bits), dtype=np.uint8)
    rows = np.zeros((BATCH_SIZE, total), dtype=np.complex128)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, (BATCH_SIZE, 1)))
    rows[:, known_offset : known_offset + known_n_bits + 1] += (
        BatchMSKModulator(amplitude=1.0).modulate(known_bits).samples * phases
    )
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, (BATCH_SIZE, 1)))
    rows[:, unknown_offset : unknown_offset + unknown_n_bits + 1] += (
        BatchMSKModulator(amplitude=0.7).modulate(unknown_bits).samples * phases
    )
    rows += 0.02 * (
        rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)
    ) / np.sqrt(2)
    return {
        "batch": SignalBatch(rows),
        "signals": [ComplexSignal(row) for row in rows],
        "known_bits": known_bits,
        "unknown_bits": unknown_bits,
        "known_offset": known_offset,
        "unknown_offset": unknown_offset,
        "unknown_n_bits": unknown_n_bits,
    }


def test_batch_decoder_speedup_and_trajectory(collision_batch):
    """decode_batch beats scalar decode by the floor at batch 64; emit BENCH_phy.json."""
    decoder = InterferenceDecoder()
    setup = collision_batch

    def scalar_decode():
        return [
            decoder.decode(
                setup["signals"][i],
                setup["known_bits"][i],
                setup["known_offset"],
                setup["unknown_offset"],
                setup["unknown_n_bits"],
            )[0]
            for i in range(BATCH_SIZE)
        ]

    def batch_decode():
        return decoder.decode_batch(
            setup["batch"],
            setup["known_bits"],
            setup["known_offset"],
            setup["unknown_offset"],
            setup["unknown_n_bits"],
        )[0]

    scalar_seconds, scalar_bits = _best_of(scalar_decode)
    batch_seconds, batch_bits = _best_of(batch_decode)

    # The timing is only meaningful if both paths compute the same thing.
    for i in range(BATCH_SIZE):
        assert np.array_equal(batch_bits[i], scalar_bits[i])
    # And the decode itself must be good: clean synthetic collisions.
    assert float(np.mean(batch_bits != setup["unknown_bits"])) < 0.05

    speedup = scalar_seconds / batch_seconds
    scalar_us = scalar_seconds / BATCH_SIZE * 1e6
    batch_us = batch_seconds / BATCH_SIZE * 1e6

    # Batched MSK modem throughput at the same batch size (reported in the
    # trajectory; not gated, the decoder is the acceptance-bar kernel).
    bits = setup["known_bits"]
    mod_scalar_seconds, _ = _best_of(
        lambda: [MSKModulator().modulate(row) for row in bits]
    )
    mod_batch_seconds, _ = _best_of(lambda: BatchMSKModulator().modulate(bits))
    waveforms = BatchMSKModulator().modulate(bits)
    demod_scalar_seconds, _ = _best_of(
        lambda: [MSKDemodulator().demodulate(waveforms.row(i)) for i in range(BATCH_SIZE)]
    )
    demod_batch_seconds, _ = _best_of(lambda: BatchMSKDemodulator().demodulate(waveforms))

    # Per-backend decode timing + correctness against the scalar bits.
    backend_metrics = {}
    backend_lines = []
    for name in available_backends():
        backend = get_backend(name)
        backend_decoder = InterferenceDecoder(backend=name)

        def backend_decode(d=backend_decoder):
            return d.decode_batch(
                setup["batch"],
                setup["known_bits"],
                setup["known_offset"],
                setup["unknown_offset"],
                setup["unknown_n_bits"],
            )[0]

        backend_decode()  # warm any JIT compilation outside the timing
        backend_seconds, backend_bits = _best_of(backend_decode)
        backend_us = backend_seconds / BATCH_SIZE * 1e6
        entry = {
            "batch_decode_us_per_trial": round(backend_us, 2),
            "speedup_vs_scalar": round(scalar_seconds / backend_seconds, 3),
            "digest_neutral": backend.digest_neutral,
        }
        if backend.fallback_of:
            entry["fallback_of"] = backend.fallback_of
        if backend.digest_neutral:
            # Exact: the suite's strongest claim must hold in the bench too.
            assert np.array_equal(backend_bits, np.asarray(scalar_bits)), (
                f"digest-neutral backend {name!r} diverged from the scalar bits"
            )
        else:
            gate = float(backend.accuracy_gate["max_ber_deviation"])
            deviation = float(np.mean(backend_bits != np.asarray(scalar_bits)))
            entry["ber_deviation_vs_scalar"] = round(deviation, 6)
            assert deviation <= gate, (
                f"backend {name!r} deviates {deviation:.2%} from the reference "
                f"bits, beyond its declared accuracy gate of {gate:.2%}"
            )
        backend_metrics[name] = entry
        backend_lines.append(f"decode[{name}]: {backend_us:9.1f} us/trial")

    if os.environ.get("ANC_ENFORCE_NUMBA_GATE") == "1":
        numba_backend = get_backend("numba")
        assert numba_backend.fallback_of is None, (
            "ANC_ENFORCE_NUMBA_GATE=1 but numba is not installed"
        )
        numba_us = backend_metrics["numba"]["batch_decode_us_per_trial"]
        numpy_us = backend_metrics["numpy"]["batch_decode_us_per_trial"]
        assert numpy_us / numba_us >= REQUIRED_NUMBA_SPEEDUP, (
            f"numba decode at {numba_us} us/trial is under "
            f"{REQUIRED_NUMBA_SPEEDUP}x the numpy backend's {numpy_us} us/trial"
        )

    lines = [
        f"=== PHY batch microbenchmark: {BATCH_SIZE} trials, {FRAME_BITS}-bit frames ===",
        f"scalar decode:   {scalar_us:9.1f} us/trial",
        f"batched decode:  {batch_us:9.1f} us/trial",
        f"decoder speedup: {speedup:9.2f} x   (required >= {REQUIRED_DECODER_SPEEDUP:.1f} x)",
        f"modulate speedup:  {mod_scalar_seconds / mod_batch_seconds:7.2f} x",
        f"demodulate speedup:{demod_scalar_seconds / demod_batch_seconds:7.2f} x",
        *backend_lines,
    ]
    write_result("microbench_batch", "\n".join(lines), check_reference=False)

    trajectory = {
        "benchmark": "phy_batch",
        "batch_size": BATCH_SIZE,
        "frame_bits": FRAME_BITS,
        # Top-level metrics are the numpy reference path — the series
        # tools/check_bench_regression.py gates across PRs.
        "metrics": {
            "scalar_decode_us_per_trial": round(scalar_us, 2),
            "batch_decode_us_per_trial": round(batch_us, 2),
            "decoder_speedup": round(speedup, 3),
            "decoder_trials_per_second": round(BATCH_SIZE / batch_seconds, 1),
            "modulate_speedup": round(mod_scalar_seconds / mod_batch_seconds, 3),
            "demodulate_speedup": round(demod_scalar_seconds / demod_batch_seconds, 3),
        },
        "backends": backend_metrics,
    }
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")

    assert speedup >= REQUIRED_DECODER_SPEEDUP, (
        f"batched decoder managed only {speedup:.2f}x over scalar at "
        f"batch_size={BATCH_SIZE}; the fast path has regressed"
    )


def test_batch_demodulator_faster_than_scalar(collision_batch):
    """The batched demodulator must never lose to per-row scalar calls."""
    bits = collision_batch["known_bits"]
    waveforms = BatchMSKModulator().modulate(bits)
    scalar_seconds, _ = _best_of(
        lambda: [MSKDemodulator().demodulate(waveforms.row(i)) for i in range(BATCH_SIZE)]
    )
    batch_seconds, decoded = _best_of(lambda: BatchMSKDemodulator().demodulate(waveforms))
    assert np.array_equal(decoded, bits)
    assert batch_seconds < scalar_seconds, (
        "batched demodulation slower than scalar row-by-row demodulation"
    )
