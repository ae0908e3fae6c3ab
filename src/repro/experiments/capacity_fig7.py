"""Figure 7: capacity bounds as functions of SNR.

Evaluates the Theorem 8.1 bounds over the figure's SNR range through the
:class:`~repro.experiments.engine.ExperimentEngine` (one trial per grid
point — the bounds are elementwise in SNR, so per-point evaluation is
bit-identical to the vectorised sweep) and returns the curve plus the
headline observations the paper draws from the figure: the crossover SNR
below which amplify-and-forward hurts, and the asymptotic 2x gain at high
SNR.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.capacity.bounds import (
    DEFAULT_ALPHA,
    anc_capacity_lower_bound,
    crossover_snr_db,
    traditional_capacity_upper_bound,
)
from repro.capacity.sweep import CapacityCurve, validate_snr_grid
from repro.exceptions import CapacityError, ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine


def run_capacity_point_trial(
    cfg: ExperimentConfig, snr_db: float, alpha: float = DEFAULT_ALPHA
) -> Tuple[float, float, float]:
    """Evaluate both Theorem 8.1 bounds and their ratio at one SNR.

    The engine passes the SNR value itself as the trial key; ``cfg`` is
    unused (the bounds are deterministic) but part of the engine's
    signature.  Returns ``(traditional, anc, gain)`` in b/s/Hz.  The gain
    is the guarded ratio of the two bounds, exactly as
    :func:`repro.capacity.bounds.capacity_gain` defines it — computed
    from the already-evaluated bounds instead of re-deriving them.
    """
    grid = np.asarray([float(snr_db)], dtype=float)
    traditional = float(np.atleast_1d(traditional_capacity_upper_bound(grid, alpha))[0])
    anc = float(np.atleast_1d(anc_capacity_lower_bound(grid, alpha))[0])
    gain = anc / traditional if traditional > 0 else 0.0
    return traditional, anc, gain


def run_capacity_experiment(
    snr_db_values: Optional[Sequence[float]] = None,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    alpha: float = DEFAULT_ALPHA,
) -> CapacityCurve:
    """Evaluate the Theorem 8.1 bounds over the Fig. 7 SNR range.

    The bounds are closed-form information-theoretic expressions, not a
    waveform simulation, so channel impairments cannot apply; a config
    that requests them is rejected loudly rather than producing a result
    whose snapshot claims impairments that never acted.
    """
    if snr_db_values is None:
        snr_db_values = np.arange(0.0, 56.0, 1.0)
    grid = validate_snr_grid(snr_db_values)

    cfg = config if config is not None else ExperimentConfig()
    if cfg.impairments.enabled:
        raise ConfigurationError(
            "the capacity experiment evaluates analytic Theorem 8.1 bounds; "
            "channel impairments (--cfo/--fading) do not apply to it"
        )
    points = default_engine(engine).map(
        "fig07_capacity",
        run_capacity_point_trial,
        cfg,
        [float(v) for v in grid],
        params={"alpha": float(alpha)},
        batch_size=cfg.engine_batch_size,
    )
    try:
        crossover = crossover_snr_db(low_db=float(grid[0]), high_db=float(grid[-1]), alpha=alpha)
    except CapacityError:
        crossover = float("nan")
    return CapacityCurve(
        snr_db=tuple(float(v) for v in grid),
        traditional=tuple(p[0] for p in points),
        anc=tuple(p[1] for p in points),
        gain=tuple(p[2] for p in points),
        crossover_db=crossover,
    )


def render_capacity_table(curve: CapacityCurve, step: int = 5) -> str:
    """Plain-text rendering of the Fig. 7 series (every ``step``-th point)."""
    lines = ["SNR (dB) | traditional (b/s/Hz) | ANC (b/s/Hz) | gain"]
    lines.append("-" * len(lines[0]))
    rows = curve.as_rows()
    for index in range(0, len(rows), step):
        snr, trad, anc, gain = rows[index]
        lines.append(f"{snr:8.1f} | {trad:20.3f} | {anc:12.3f} | {gain:5.2f}")
    lines.append(f"crossover SNR: {curve.crossover_db:.1f} dB")
    lines.append(f"gain at {rows[-1][0]:.0f} dB: {curve.asymptotic_gain:.2f}x")
    return "\n".join(lines)
