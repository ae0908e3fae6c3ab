"""Measure the baseline: repeated untraced runs plus one traced run per workload.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --runs 10 --sets 2 --label <commit>

For every workload it makes ``--sets`` consecutive sets of ``--runs``
untraced runs, each run with another seed (workloads interleaved, so slow
spells of the machine hit all of them alike), and then one traced run at
the default seed.  It reports each metric's median, quartiles, sample
count and spread (the distance between the quartiles as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives them) over all
runs and per set, and how far the last set's median is worse than the
first set's.  It flags end-to-end spreads above a third of the metric's
bound and shifts above the bound, and writes ``perfbench/baseline.json``
and ``perfbench/BASELINE.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Seed of the first untraced run; the default seed is kept for the traced run.
FIRST_SEED = 1


def end_to_end_metrics() -> dict:
    """``{metric: (bound, better)}`` of the end-to-end metrics in ``BENCHMARK.json``."""
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}


def spread(values: list, sets: int) -> dict:
    """Median, quartiles and inter-quartile spread of one metric's samples.

    The samples are also split into ``sets`` consecutive sets, and each
    set's median and spread are reported, as separate sets of runs give them.
    """
    median = statistics.median(values)
    size = len(values) // sets
    chunks = [values[i * size:(i + 1) * size] for i in range(sets)]
    return {
        "n": len(values),
        "median": median,
        **dict(zip(("q1", "q3", "spread"), quartiles(values))),
        "set_medians": [statistics.median(chunk) for chunk in chunks],
        "set_spreads": [quartiles(chunk)[2] for chunk in chunks],
        "values": values,
    }


def quartiles(values: list) -> tuple:
    """``(q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(stats: dict, better: str) -> float:
    """How much worse the last set's median is than the first's, as a share."""
    first, last = stats["set_medians"][0], stats["set_medians"][-1]
    change = (last - first) / first if first else 0.0
    return change if better == "lower" else -change


def measure_all(runs: int, seconds: float, workloads: list, sets: int) -> dict:
    """``sets`` sets of untraced runs (interleaved by seed), then one traced run each."""
    samples = {w: {} for w in workloads}
    units = {w: {} for w in workloads}
    failures = {w: 0 for w in workloads}
    for seed in range(FIRST_SEED, FIRST_SEED + runs * sets):
        for workload in workloads:
            report = run.measure(workload, seed, seconds, 0)
            failures[workload] += report["result"]["failed"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.5g}" for k, (v, _) in report["table"].items()), flush=True)
            for name, (value, unit) in report["table"].items():
                samples[workload].setdefault(name, []).append(value)
                units[workload][name] = unit
    record = {}
    for workload in workloads:
        traced = run.measure(workload, run.DEFAULT_SEED, seconds, 1)
        failures[workload] += traced["result"]["failed"]
        record[workload] = {
            "metrics": {
                name: {"unit": units[workload][name], **spread(values, sets)}
                for name, values in samples[workload].items()
            },
            "failed_ops": failures[workload],
            "per_layer": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in traced["table"].items()},
        }
    return record


def markdown(record: dict, label: str, seeds: list, runs: int, sets: int,
             seconds: float) -> str:
    """The human-readable baseline tables."""
    e2e = end_to_end_metrics()
    set_names = [f"set {i + 1} (seeds {seeds[i * runs]}..{seeds[(i + 1) * runs - 1]})"
                 for i in range(sets)]
    lines = [
        "# Baseline",
        "",
        f"Measured at `{label}` on {os.cpu_count()} CPUs, Python "
        f"{platform.python_version()}, {seconds:g} s per run: {sets} consecutive sets "
        f"of {runs} untraced runs, seeds {seeds[0]}..{seeds[-1]}, then one traced run "
        f"per workload at seed {run.DEFAULT_SEED}.",
        f"Regenerate with `python3 perfbench/baseline.py --runs {runs} --sets {sets} "
        "--label <commit>`.",
        "",
        "Spread is (q3 - q1) / median over the runs.  End-to-end metrics (the",
        "ones `BENCHMARK.json` bounds) are marked `e2e`; the rest are the",
        "workload's own rates from the same runs.",
        "",
        "## Sets of runs",
        "",
        "Per end-to-end metric: each set's median with its spread, and how much",
        "worse the last set's median is than the first's, as a share of the first",
        "(negative: better).",
        "",
        "| workload | metric | " + " | ".join(set_names) + " | worse by | bound |",
        "|---|---|" + "---|" * sets + "---|---|",
    ]
    for workload, entry in record.items():
        for name, (bound, better) in e2e.items():
            stats = entry["metrics"][name]
            cells = " | ".join(f"{m:.4g} ({q:.3f})"
                               for m, q in zip(stats["set_medians"], stats["set_spreads"]))
            lines.append(f"| {workload} | {name} | {cells} | "
                         f"{worse_by(stats, better):+.3f} | {bound:g} |")
    lines.append("")
    for workload, entry in record.items():
        lines += [
            f"## {workload}",
            "",
            f"Failed ops over all runs: {entry['failed_ops']}.",
            "",
            "| metric | unit | n | median | q1 | q3 | spread | bound |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for name, stats in entry["metrics"].items():
            tag = f"{e2e[name][0]:g} (e2e)" if name in e2e else ""
            lines.append(
                f"| {name} | {stats['unit']} | {stats['n']} | {stats['median']:.6g} | "
                f"{stats['q1']:.6g} | {stats['q3']:.6g} | {stats['spread']:.3f} | {tag} |")
        lines += [
            "",
            f"Traced run, per traced pass (seed {run.DEFAULT_SEED}):",
            "",
            "| layer | self_s | calls | share |",
            "|---|---|---|---|",
        ]
        layer_rows = entry["per_layer"]
        layers = sorted({name.rsplit(".", 1)[0] for name in layer_rows
                         if name.endswith(".share")},
                        key=lambda layer: -layer_rows[f"{layer}.share"]["value"])
        for layer in layers:
            lines.append(
                f"| {layer} | {layer_rows[f'{layer}.self_s']['value']:.4g} | "
                f"{layer_rows[f'{layer}.calls']['value']:.6g} | "
                f"{layer_rows[f'{layer}.share']['value']:.3f} |")
        lines += ["", "| counter | value | unit |", "|---|---|---|"]
        for name, item in layer_rows.items():
            if name.rsplit(".", 1)[-1] not in ("self_s", "calls", "share"):
                lines.append(f"| {name} | {item['value']:.6g} | {item['unit']} |")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure and record the baseline.")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2,
                        help="consecutive sets of runs, each with its own median")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--label", default="unlabelled")
    args = parser.parse_args(argv)
    record = measure_all(args.runs, args.seconds, list(run.WORKLOADS), args.sets)
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.runs * args.sets))
    for workload, entry in record.items():
        for name, (bound, better) in end_to_end_metrics().items():
            stats = entry["metrics"][name]
            shift = worse_by(stats, better)
            flags = ""
            if name != "setup_s" and max(stats["set_spreads"]) > bound / 3:
                flags += "  spread > bound/3"
            if shift > bound:
                flags += "  shift > bound"
            sets = " ".join(f"{m:.5g} ({q:.3f})"
                            for m, q in zip(stats["set_medians"], stats["set_spreads"]))
            print(f"{workload:8} {name:14} set medians (spreads) {sets}  "
                  f"worse by {shift:+.3f}  bound {bound}{flags}")
    document = {"label": args.label, "seconds": args.seconds, "seeds": seeds,
                "runs_per_set": args.runs, "sets": args.sets,
                "cpus": os.cpu_count(), "python": platform.python_version(),
                "workloads": record}
    (HERE / "baseline.json").write_text(json.dumps(document, indent=1) + "\n")
    (HERE / "BASELINE.md").write_text(
        markdown(record, args.label, seeds, args.runs, args.sets, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
