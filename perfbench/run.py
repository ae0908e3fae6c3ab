"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 30 --trace 0

Set-up is timed from outside: this script starts ``worker.py`` in fresh
interpreters and measures from the start of each one until it reports
ready (imports, the experiment registry, input generation, store and
server start-up).  It does that ``SETUP_SAMPLES`` times and reports the
median as ``setup_s``; the last of those workers goes on to run the timed
body.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics.

``--write-reference`` regenerates ``perfbench/reference.json``: it runs
every workload at the default seed and records each op's output digest.
"""

from __future__ import annotations

import argparse
import json
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "
WORKLOADS = ("figures", "traffic", "store")
DEFAULT_SEED = 0
#: Fresh interpreters started per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Longest a worker may take to get ready, and to finish beyond ``--seconds``,
#: before it is killed; together they keep a run well inside three minutes.
READY_TIMEOUT = 60.0
GRACE_SECONDS = 90.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


class Worker:
    """One worker process; a reader thread forwards its stdout lines."""

    def __init__(self, extra: list) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(WORKER), *extra],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _next_line(self, deadline: float):
        try:
            return self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise BenchmarkError("worker overran its time limit") from None

    def wait_ready(self, timeout: float) -> float:
        """Seconds from the start of the process until it reported ready."""
        deadline = time.monotonic() + timeout
        while True:
            line = self._next_line(deadline)
            if line == READY:
                return time.perf_counter() - self.started
            if line is None:
                raise BenchmarkError("worker exited before it was ready")

    def result(self, timeout: float) -> dict:
        """The worker's result line (``{}`` for a set-up-only worker)."""
        deadline = time.monotonic() + timeout
        output: dict = {}
        while True:
            line = self._next_line(deadline)
            if line is None:
                break
            if line.startswith(RESULT):
                output = json.loads(line[len(RESULT):])
        self.process.wait(timeout=max(1.0, deadline - time.monotonic()))
        if self.process.returncode != 0:
            raise BenchmarkError(f"worker failed with exit code {self.process.returncode}")
        return output

    def stop(self) -> None:
        """Kill the worker if it is still running and reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.reader.join()


def timed_worker(extra: list, seconds: float) -> tuple:
    """Run one worker to its end; return ``(ready seconds, output)``."""
    worker = Worker(extra)
    try:
        ready_s = worker.wait_ready(READY_TIMEOUT)
        return ready_s, worker.result(seconds + GRACE_SECONDS)
    finally:
        worker.stop()


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", setup_samples: int = SETUP_SAMPLES,
                 write_reference: bool = False) -> dict:
    """One benchmark run; returns the worker output plus ``setup_s`` samples."""
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    samples = [timed_worker(common + ["--setup-only"], 0.0)[0]
               for _ in range(setup_samples - 1)]
    body = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if write_reference:
        body.append("--write-reference")
    ready_s, output = timed_worker(body, seconds)
    if not output:
        raise BenchmarkError("worker printed no result")
    output["setup_samples"] = samples + [ready_s]
    return output


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str = "full", setup_samples: int = SETUP_SAMPLES) -> dict:
    """One run: the result object of the last output line, plus the printed table."""
    output = run_workload(workload, seed, seconds, trace, size, setup_samples)
    if trace:
        metrics = {name: tuple(value) for name, value in output["metrics"].items()}
    else:
        metrics = {"setup_s": (statistics.median(output["setup_samples"]), "s")}
        metrics.update({name: tuple(value) for name, value in output["metrics"].items()})
    attempted, failed = output["attempted"], output["failed"]
    table = {**metrics, **{name: tuple(value) for name, value in output["summary"].items()}}
    table["error_rate"] = (failed / attempted, "ratio")
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
        "table": table,
        "passes": output["passes"],
        "errors": output["errors"],
    }


def write_reference(seconds: float) -> None:
    """Record every op digest of every workload at the default seed."""
    reference = {}
    for workload in WORKLOADS:
        output = run_workload(workload, DEFAULT_SEED, seconds, 0, setup_samples=1,
                              write_reference=True)
        reference[workload] = dict(sorted(output["first_digests"].items()))
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs one op of each kind (self-tests)")
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json at the default seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_samples < 1:
        parser.error("--setup-samples must be at least 1")
    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace,
                         args.size, args.setup_samples)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result = report["result"]
    print(f"workload {args.workload}  seed {args.seed}  passes {report['passes']}")
    for name, (value, unit) in report["table"].items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  ops checked: {result['attempted']}, failed: {result['failed']}")
    for error in report["errors"]:
        print(f"  check failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
