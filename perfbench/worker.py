"""One benchmark process: set up a workload, run timed passes, check outputs.

``run.py`` starts this file in a fresh interpreter and times it from the
outside: set-up ends when this process prints its ready line.  The timed
body then runs closed-loop passes until ``--seconds`` are used up and
prints one result line.  Every untraced pass is followed by a timing of
the calibration kernel (``calibrate.py``); the pass's cost is its wall
time divided by the mean of the kernel timings on either side of it.
With ``--trace 1`` untraced and traced passes alternate, so the traced
run also measures its own overhead and checks that tracing leaves every
output digest unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from calibrate import kernel_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CYCLE, DEFAULT_SEED, WORKLOADS, Checker  # noqa: E402

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
REFERENCE_PATH = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"


def load_reference(workload: str, seed: int):
    """Reference digests of ``workload`` at the default seed, else ``None``."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_PATH.read_text())[workload]


def layer_metrics(traced, untraced_walls, traced_walls):
    """Per-layer metrics, per traced pass, from each pass's span totals.

    ``traced`` holds one ``(layer_totals, counter_totals)`` pair per
    traced pass.
    """
    passes = len(traced)
    wall = sum(traced_walls)
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in layers.LAYERS}
    counts = {}
    for layer_totals, counter_totals in traced:
        for layer, entry in layer_totals.items():
            totals[layer]["self_s"] += entry["self_s"]
            totals[layer]["calls"] += entry["calls"]
        for name, value in counter_totals.items():
            counts[name] = counts.get(name, 0.0) + value
    metrics = {}
    for layer in layers.LAYERS:
        entry = totals[layer]
        metrics[f"{layer}.self_s"] = (entry["self_s"] / passes, "s")
        metrics[f"{layer}.calls"] = (entry["calls"] / passes, "count")
        metrics[f"{layer}.share"] = (entry["self_s"] / wall if wall else 0.0, "ratio")
    for name, (hits, base) in layers.COUNTERS.items():
        if base is None:
            metrics[name] = (counts.get(hits, 0.0) / passes, "count")
        else:
            total = counts.get(base, 0.0)
            metrics[name] = (counts.get(hits, 0.0) / total if total else 0.0, "ratio")
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def write_trace(path: Path, tracer: Tracer, workload: str, seed: int) -> None:
    """Write the first traced pass's spans (kept in memory until now)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": workload,
        "seed": seed,
        "columns": ["id", "layer", "parent", "start", "end", "self_s", "thread", "op"],
        "spans": [span.as_record() for span in tracer.spans],
    }
    path.write_text(json.dumps(document, separators=(",", ":")))


def done(args, workload, results, elapsed: float) -> bool:
    """Whether the timed body has run long enough and has what it needs."""
    if args.write_reference:
        return len(results) >= CYCLE and workload.enough(results)
    if args.trace and len(results) < 2:
        return False
    return elapsed >= args.seconds and workload.enough(results)


def run(args) -> dict:
    """Set up, print the ready line, run the timed body, return the result."""
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    reference = None if args.write_reference else load_reference(args.workload, args.seed)
    checker = Checker(reference)
    targets = layers.targets() if args.trace else []
    try:
        workload.setup()
        print(READY, flush=True)
        if args.setup_only:
            return {}
        results, untraced, traced, traced_walls = [], [], [], []
        costs, kernels = [], []
        first_tracer = None
        kernel_s()  # warm-up: the first run pays numpy's first-call costs
        kernel_before = kernel_s()
        started = time.perf_counter()
        while not done(args, workload, results, time.perf_counter() - started):
            index, traced_pass = divmod(len(results), 2) if args.trace else (len(results), 0)
            if traced_pass:
                # A traced pass repeats the inputs of the untraced pass before it.
                tracer = Tracer()
                with tracer.installed(targets):
                    result = workload.run_pass(index)
                traced.append((tracer.layer_totals(), tracer.counter_totals()))
                traced_walls.append(result.wall_s)
                first_tracer = first_tracer or tracer
            else:
                result = workload.run_pass(index)
                kernel_after = kernel_s()
                costs.append(2.0 * result.wall_s / (kernel_before + kernel_after))
                kernels.append(kernel_after)
                kernel_before = kernel_after
                untraced.append(result)
            checker.check(result)
            results.append(result)
        if args.trace:
            write_trace(TRACE_ROOT / f"trace-{args.workload}-seed{args.seed}.json",
                        first_tracer, args.workload, args.seed)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [r.wall_s for r in untraced]
    output = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "passes": len(results),
        "first_digests": checker.first,
        "summary": {
            "wall_s": (statistics.median(walls), "s"),
            "kernel_s": (statistics.median(kernels), "s"),
            **workload.summary(untraced),
        },
    }
    if args.trace:
        output["metrics"] = layer_metrics(traced, walls, traced_walls)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        output["metrics"] = {
            "pass_cost": (statistics.median(costs), "kernel"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="skip the reference comparison (used when regenerating it)")
    args = parser.parse_args(argv)
    output = run(args)
    if output:
        print(RESULT + json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
