"""Unit tests of the CI perf-regression gate's comparison logic."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
GATE = REPO_ROOT / "tools" / "check_bench_regression.py"

sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_bench_regression import find_regressions, load_metrics  # noqa: E402

BASELINE = {"decoder_speedup": 5.0, "modulate_speedup": 3.0, "demodulate_speedup": 2.5}


class TestFindRegressions:
    def test_identical_metrics_are_clean(self):
        assert find_regressions(BASELINE, dict(BASELINE), 0.30) == []

    def test_drop_within_tolerance_is_clean(self):
        fresh = dict(BASELINE, decoder_speedup=5.0 * 0.71)
        assert find_regressions(BASELINE, fresh, 0.30) == []

    def test_drop_beyond_tolerance_is_flagged(self):
        fresh = dict(BASELINE, decoder_speedup=5.0 * 0.69)
        findings = find_regressions(BASELINE, fresh, 0.30)
        assert len(findings) == 1
        assert "decoder_speedup" in findings[0]

    def test_improvement_is_clean(self):
        fresh = dict(BASELINE, decoder_speedup=9.0)
        assert find_regressions(BASELINE, fresh, 0.30) == []

    def test_missing_fresh_metric_is_flagged(self):
        fresh = {k: v for k, v in BASELINE.items() if k != "modulate_speedup"}
        findings = find_regressions(BASELINE, fresh, 0.30)
        assert findings == ["modulate_speedup: missing from the fresh measurement"]

    def test_metric_absent_from_baseline_is_ignored(self):
        baseline = {"decoder_speedup": 5.0}
        fresh = dict(BASELINE)
        assert find_regressions(baseline, fresh, 0.30) == []


class TestSimMetric:
    def test_events_per_kernel_drop_beyond_tolerance_is_flagged(self):
        baseline = dict(BASELINE, events_per_kernel=40.0)
        fresh = dict(BASELINE, events_per_kernel=40.0 * 0.69)
        findings = find_regressions(baseline, fresh, 0.30)
        assert len(findings) == 1
        assert findings[0].startswith("events_per_kernel: ")

    def test_events_per_kernel_drop_within_tolerance_is_clean(self):
        baseline = dict(BASELINE, events_per_kernel=40.0)
        fresh = dict(BASELINE, events_per_kernel=40.0 * 0.71)
        assert find_regressions(baseline, fresh, 0.30) == []

    def test_events_per_kernel_missing_from_fresh_file_is_flagged(self, tmp_path):
        base_path = tmp_path / "base.json"
        base_path.write_text(
            json.dumps({"metrics": BASELINE, "sim": {"events_per_kernel": 40.0}})
        )
        fresh_path = tmp_path / "fresh.json"
        # A fresh file whose sim section still carries only the retired key.
        fresh_path.write_text(
            json.dumps(
                {"metrics": BASELINE, "sim": {"event_throughput_vs_scalar_decode": 1.3}}
            )
        )
        findings = find_regressions(load_metrics(base_path), load_metrics(fresh_path), 0.30)
        assert findings == ["events_per_kernel: missing from the fresh measurement"]


class TestCommandLine:
    def _write(self, tmp_path, name, metrics):
        path = tmp_path / name
        path.write_text(json.dumps({"benchmark": "phy_batch", "metrics": metrics}))
        return path

    def test_exit_zero_when_clean(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", BASELINE)
        fresh = self._write(tmp_path, "fresh.json", BASELINE)
        result = subprocess.run(
            [sys.executable, str(GATE), "--baseline", str(baseline), "--fresh", str(fresh)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert "perf gate: clean" in result.stdout

    def test_exit_one_on_regression(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", BASELINE)
        fresh = self._write(
            tmp_path, "fresh.json", dict(BASELINE, decoder_speedup=1.0)
        )
        result = subprocess.run(
            [sys.executable, str(GATE), "--baseline", str(baseline), "--fresh", str(fresh)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 1
        assert "perf regression: decoder_speedup" in result.stdout

    def test_malformed_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"no": "metrics"}))
        try:
            load_metrics(path)
        except SystemExit as error:
            assert "metrics" in str(error)
        else:  # pragma: no cover - the gate must refuse malformed input
            raise AssertionError("load_metrics accepted a file without metrics")
