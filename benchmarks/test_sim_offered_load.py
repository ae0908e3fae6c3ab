"""Benchmark of the discrete-event traffic core on the §8 load sweep.

Runs one quick-scale ``offered_load_sweep`` cell through
:class:`repro.sim.simulation.TrafficSimulation` and records its wall
clock and event throughput in the ``"sim"`` section of the
``BENCH_phy.json`` trajectory artifact.  Absolute timings are
machine-specific, so the gated number is a *ratio*: ``events_per_kernel``,
simulator events per run of ``perfbench/calibrate.py``'s calibration
kernel (event throughput multiplied by the kernel's time, measured just
before and just after the cell in the same process).  The kernel never
calls the library, so the ratio is self-normalized: it moves only with
the cell's own work (the event core and the PHY it drives), never with
another benchmark's timing — a faster decoder reads as a faster cell,
not a slower one.  ``tools/check_bench_regression.py`` compares that
ratio against the committed baseline — a zero-delay event loop or an
accidentally quadratic resolver shows up as the ratio collapsing, not as
CI-runner noise.

The paper's §8 qualitative claim is asserted alongside the timing: at
high offered load ANC goodput must exceed COPE's, and COPE's must exceed
traditional relaying's, on the same arrival sample path.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from conftest import write_result

from repro.experiments.config import ExperimentConfig
from repro.experiments.offered_load import run_offered_load_trial
from repro.network.topologies import ChannelConditions
from repro.sim.simulation import SimParams, TrafficSimulation

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_phy.json"

sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from calibrate import kernel_s  # noqa: E402

#: The timed cell: the quick-sweep mid load at the golden seed's shape.
BENCH_CONFIG = {"runs": 1, "packets_per_run": 2, "payload_bits": 512, "seed": 7}
TIMED_LOAD = 0.8
HIGH_LOAD = 1.2


def _timed_simulation():
    """One seeded offered-load simulation, returning (seconds, report)."""
    params = SimParams(arrival_rate=TIMED_LOAD, sim_duration_frames=48.0)
    best = float("inf")
    report = None
    for _ in range(3):
        sim = TrafficSimulation(
            params, entropy=[7, 600, 0], conditions=ChannelConditions(snr_db=18.0)
        )
        start = time.perf_counter()
        report = sim.run()
        best = min(best, time.perf_counter() - start)
    return best, report


def test_offered_load_quick_trajectory():
    """Time the event core, gate §8's ordering, and extend BENCH_phy.json."""
    cfg = ExperimentConfig(**BENCH_CONFIG)
    kernel_before = kernel_s()
    seconds, report = _timed_simulation()
    kernel_seconds = statistics.mean((kernel_before, kernel_s()))
    events_per_second = report.events / seconds

    high = run_offered_load_trial(cfg, (HIGH_LOAD, 0))
    assert high["anc"]["throughput"] > high["cope"]["throughput"], (
        "ANC goodput must beat COPE at high offered load (§8)"
    )
    assert high["cope"]["throughput"] >= high["traditional"]["throughput"], (
        "COPE must not lose to traditional relaying at high offered load (§8); "
        "under full hidden-terminal collapse the two can tie"
    )
    assert high["anc"]["drop_rate"] < high["traditional"]["drop_rate"]

    # Merge into the trajectory artifact (the PHY microbenchmark owns the
    # top-level metrics; this benchmark owns the "sim" section).
    trajectory = {}
    if TRAJECTORY_PATH.is_file():
        trajectory = json.loads(TRAJECTORY_PATH.read_text())
    trajectory["sim"] = {
        "scenario": "offered_load_sweep",
        "arrival_rate": TIMED_LOAD,
        "sim_duration_frames": 48.0,
        "quick_cell_seconds": round(seconds, 4),
        "events": report.events,
        "events_per_second": round(events_per_second, 1),
        "kernel_seconds": round(kernel_seconds, 4),
        # Machine-independent: events per calibration-kernel run on the
        # same box — the ratio tools/check_bench_regression.py gates.
        "events_per_kernel": round(events_per_second * kernel_seconds, 3),
    }
    TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")

    # The goodput ordering rendered for inspection: fully deterministic
    # (seeded simulation), so the text is regression-checked byte-for-byte.
    lines = [
        f"=== offered_load_sweep quick cell: load {HIGH_LOAD}, seed 7 ===",
        *(
            f"{scheme:12s} goodput {high[scheme]['throughput']:.6e} "
            f"drop_rate {high[scheme]['drop_rate']:.4f}"
            for scheme in ("anc", "cope", "traditional")
        ),
    ]
    write_result("sim_offered_load", "\n".join(lines))
