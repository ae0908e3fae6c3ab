"""Self-tests of the benchmark: smoke runs, the output check and the tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root
of the repository.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, covered  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Checker  # noqa: E402



def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _reference(workload: str) -> dict:
    return json.loads((HERE / "reference.json").read_text())[workload]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(DEFAULT_SEED), "--seconds", "0.2", "--trace", str(trace),
         "--size", "smoke", "--setup-samples", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_the_declared_metrics(workload, trace, section):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, completed.stdout
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _benchmark()[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert all(result["metrics"][f"{layer}.self_s"]["value"] >= 0
                   for layer in layers.LAYERS)


def test_calibration_kernel_is_unchanged():
    # pass_cost is measured in units of this kernel: changing it re-bases every record.
    assert calibrate.kernel() == calibrate.CHECKSUM


def test_every_workload_name_is_declared():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(WORKLOADS)


def _smoke_pass(name: str, tmp_path: Path):
    workload = WORKLOADS[name](DEFAULT_SEED, "smoke", tmp_path)
    workload.setup()
    try:
        return workload.run_pass(0)
    finally:
        workload.close()


def test_reference_passes_and_a_perturbed_digest_fails(tmp_path):
    result = _smoke_pass("figures", tmp_path)
    key = result.ops[0][0]
    checker = Checker(_reference("figures"))
    checker.check(result)
    assert checker.attempted > 0 and checker.failed == 0, checker.errors

    perturbed = _reference("figures")
    perturbed[key] = "0" * len(perturbed[key])
    checker = Checker(perturbed)
    checker.check(_smoke_pass("figures", tmp_path))
    assert checker.failed / checker.attempted > 0
    assert any(key in error for error in checker.errors)


def _attributes():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in layers.targets()]


def test_wrappers_are_restored_after_a_traced_pass(tmp_path):
    before = _attributes()
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in before)
        _smoke_pass("figures", tmp_path / "ok")
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)
    assert tracer.layer_totals()["utils.pn"]["calls"] > 0

    with pytest.raises(RuntimeError):
        with Tracer().installed(layers.targets()):
            raise RuntimeError("a pass that fails still restores the library")
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)


def test_threaded_store_pass_has_no_negative_self_time(tmp_path):
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        _smoke_pass("store", tmp_path)
    totals = tracer.layer_totals()
    for layer in ("campaign.runner", "campaign.store", "campaign.server", "api"):
        assert totals[layer]["calls"] > 0
    assert min(span.self_s for span in tracer.spans) >= 0
    assert "utils.pn" not in totals


class _Sleeper:
    def nap(self, seconds):
        time.sleep(seconds)

    async def fan_out(self, seconds):
        await asyncio.gather(asyncio.to_thread(self.nap, seconds),
                             asyncio.to_thread(self.nap, seconds))


def test_overlapping_children_in_threads_are_not_double_counted():
    tracer = Tracer()
    targets = [(_Sleeper, "fan_out", "parent", None), (_Sleeper, "nap", "child", None)]
    with tracer.installed(targets):
        asyncio.run(_Sleeper().fan_out(0.05))
    parent = next(span for span in tracer.spans if span.layer == "parent")
    children = [span for span in tracer.spans if span.layer == "child"]
    assert len(children) == 2 and all(child.parent is parent for child in children)
    assert {child.thread for child in children}.isdisjoint({parent.thread})
    # The children overlap, so their summed time exceeds the parent's.
    assert sum(c.end - c.start for c in children) > parent.end - parent.start
    # The union of the naps covers at least one nap, however late the
    # threads started, and self time never goes below zero.
    assert 0 <= parent.self_s <= (parent.end - parent.start) - 0.05 + 1e-6
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == pytest.approx(4.0)


def test_spans_from_many_threads_are_all_recorded():
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.installed([(_Sleeper, "nap", "child", None)]):
            threads = [threading.Thread(target=lambda: [_Sleeper().nap(0) for _ in range(500)])
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(tracer.spans) == 8 * 500
    assert len({span.ident for span in tracer.spans}) == 8 * 500


def test_without_the_library_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("figures", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_store_pass_repeats_its_reads_after_one_write(tmp_path):
    workload = WORKLOADS["store"](DEFAULT_SEED, "smoke", tmp_path)
    workload.setup()
    try:
        result = workload.run_pass(0)
    finally:
        workload.close()
    jobs, rounds = len(workload.jobs), workload.read_rounds
    assert result.parts["cold_jobs"] == jobs
    assert result.parts["resume_jobs"] == jobs * rounds
    assert len(result.fetch_s) == jobs * rounds
    assert result.parts["engine_warm_trials"] == rounds * result.parts["engine_cold_trials"]
