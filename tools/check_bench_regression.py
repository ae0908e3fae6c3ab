#!/usr/bin/env python
"""Perf-regression gate: compare a fresh BENCH_phy.json against a baseline.

The sim event-core benchmark (``benchmarks/test_sim_offered_load.py``)
writes the ``"sim"`` section of the ``BENCH_phy.json`` trajectory
artifact.  Absolute timings are machine-specific, so the gate compares
the machine-independent *ratio* ``events_per_kernel`` (simulator events
per run of the ``perfbench`` calibration kernel timed beside it) between
a freshly measured file and the committed baseline.  A fresh ratio more
than ``--tolerance`` (default 30 %) below the baseline fails the gate.

CI copies the committed ``BENCH_phy.json`` aside before running the
benchmark (the run overwrites it in place), then calls::

    python tools/check_bench_regression.py \
        --baseline /tmp/bench-baseline.json --fresh BENCH_phy.json

and uploads the refreshed JSON as a build artifact.  CI-machine timings
are never committed back (see ``docs/PERFORMANCE.md``).

Exit code 0 when every gated metric holds; 1 with one line per
regression otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

#: Ratio metrics gated inside the ``"sim"`` section: the discrete-event
#: traffic core's events per run of the calibration kernel
#: (``perfbench/calibrate.py``) timed beside it in the same process, so
#: the ratio depends on no other benchmark's timing.  A metric missing
#: from the baseline is skipped; one missing from the fresh file fails.
GATED_METRICS = ("events_per_kernel",)


def load_metrics(path: Path) -> dict:
    """Read the gated metrics out of one trajectory file's ``sim`` section."""
    payload = json.loads(path.read_text())
    sim = payload.get("sim")
    if not isinstance(sim, dict):
        raise SystemExit(f"{path}: no 'sim' object found")
    return {k: sim[k] for k in GATED_METRICS if k in sim}


def find_regressions(baseline: dict, fresh: dict, tolerance: float) -> List[str]:
    """One finding per gated metric that regressed beyond the tolerance."""
    findings: List[str] = []
    for metric in GATED_METRICS:
        base = baseline.get(metric)
        new = fresh.get(metric)
        if base is None:
            continue  # baseline predates the metric: nothing to gate
        if new is None:
            findings.append(f"{metric}: missing from the fresh measurement")
            continue
        floor = (1.0 - tolerance) * float(base)
        if float(new) < floor:
            findings.append(
                f"{metric}: {new:.3f} < {floor:.3f} "
                f"(baseline {base:.3f} minus {tolerance:.0%} tolerance)"
            )
    return findings


def main(argv: List[str]) -> int:
    """Compare fresh metrics against the baseline; report regressions."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True, help="committed BENCH_phy.json"
    )
    parser.add_argument(
        "--fresh", type=Path, required=True, help="freshly measured BENCH_phy.json"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the baseline (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        raise SystemExit("tolerance must lie in [0, 1)")
    baseline = load_metrics(args.baseline)
    fresh = load_metrics(args.fresh)
    findings = find_regressions(baseline, fresh, args.tolerance)
    for finding in findings:
        print(f"perf regression: {finding}")
    if findings:
        return 1
    gated = {m: fresh.get(m) for m in GATED_METRICS if m in fresh}
    print(f"perf gate: clean ({gated})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
