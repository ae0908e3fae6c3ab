"""Tests for the parallel, resumable :class:`ExperimentEngine`.

Covers the three guarantees the experiment runners rely on:

* serial (``workers=1``) and parallel (``workers>1``) execution produce
  bit-identical results, because every trial's randomness is keyed by its
  trial index rather than by execution order;
* completed trials cached to disk are reused on resume, and only the
  missing trials are recomputed;
* the cache is keyed by the full (experiment, trial function, config,
  params) digest, so changing any of them invalidates it.
"""

from __future__ import annotations

from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.alice_bob import run_alice_bob_experiment, run_alice_bob_trial
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    _SHM_MIN_BYTES,
    ExperimentEngine,
    _key_slug,
    default_engine,
)
from repro.experiments.runner import RUNNERS, available_runners, get_runner
from repro.experiments.sir_sweep import run_sir_sweep
from repro.experiments.snr_sweep import run_snr_sweep


def _draw_trial(cfg: ExperimentConfig, key: int) -> float:
    """Toy trial: one deterministic draw from the key's substream."""
    return float(cfg.run_rng(key, stream=0).uniform())


def _echo_trial(cfg: ExperimentConfig, key, scale: float = 1.0):
    """Toy trial echoing its key (scaled), for ordering/params tests."""
    return (key, scale)


def _failing_trial(cfg: ExperimentConfig, key: int) -> float:
    """Toy trial that always raises."""
    raise RuntimeError(f"trial {key} exploded")


def _none_trial(cfg: ExperimentConfig, key: int) -> None:
    """Toy trial whose legitimate result is ``None``."""
    return None


def _weighted_trial(cfg: ExperimentConfig, key: int, weights=None) -> float:
    """Toy trial reading a (possibly shared-memory) array parameter."""
    return float(weights[key % weights.size]) * (key + 1)


def _crashing_weighted_trial(cfg: ExperimentConfig, key: int, weights=None) -> float:
    """Toy trial that crashes after touching its shared array."""
    raise RuntimeError(f"trial {key} exploded with {float(weights[0])}")


@pytest.fixture
def quick_config() -> ExperimentConfig:
    return ExperimentConfig.quick(seed=11)


class TestMapBasics:
    def test_results_in_key_order(self, quick_config):
        engine = ExperimentEngine()
        results = engine.map("toy", _echo_trial, quick_config, [4, 2, 9])
        assert [r[0] for r in results] == [4, 2, 9]

    def test_params_are_forwarded(self, quick_config):
        engine = ExperimentEngine()
        results = engine.map(
            "toy", _echo_trial, quick_config, [0, 1], params={"scale": 2.5}
        )
        assert all(r[1] == 2.5 for r in results)

    def test_duplicate_keys_rejected(self, quick_config):
        with pytest.raises(ConfigurationError):
            ExperimentEngine().map("toy", _echo_trial, quick_config, [1, 1])

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentEngine(workers=0)

    def test_trial_errors_propagate(self, quick_config):
        with pytest.raises(RuntimeError, match="exploded"):
            ExperimentEngine().map("toy", _failing_trial, quick_config, range(2))

    def test_stats_recorded(self, quick_config):
        engine = ExperimentEngine()
        engine.map("toy", _draw_trial, quick_config, range(5))
        stats = engine.last_stats
        assert stats.total_trials == 5
        assert stats.executed_trials == 5
        assert stats.cached_trials == 0
        assert stats.workers == 1

    def test_default_engine_fallback(self):
        engine = ExperimentEngine(workers=1)
        assert default_engine(engine) is engine
        assert default_engine(None).workers == 1


class TestSerialParallelEquivalence:
    def test_toy_trials_identical(self, quick_config):
        serial = ExperimentEngine(workers=1).map(
            "toy", _draw_trial, quick_config, range(6)
        )
        parallel = ExperimentEngine(workers=2).map(
            "toy", _draw_trial, quick_config, range(6)
        )
        assert serial == parallel

    def test_alice_bob_report_bit_identical(self, quick_config):
        serial = run_alice_bob_experiment(quick_config, engine=ExperimentEngine(workers=1))
        parallel = run_alice_bob_experiment(quick_config, engine=ExperimentEngine(workers=2))
        # Exact equality, not approx: parallel execution must reproduce the
        # serial reports bit for bit.
        assert serial.render() == parallel.render()
        assert [r.throughput for r in serial.anc_runs] == [
            r.throughput for r in parallel.anc_runs
        ]
        assert serial.comparisons["traditional"].mean_gain == (
            parallel.comparisons["traditional"].mean_gain
        )
        assert serial.ber_cdf.mean == parallel.ber_cdf.mean

    def test_sir_sweep_bit_identical(self, quick_config):
        kwargs = dict(sir_db_values=(-3.0, 1.0), packets_per_point=2)
        serial = run_sir_sweep(quick_config, engine=ExperimentEngine(workers=1), **kwargs)
        parallel = run_sir_sweep(quick_config, engine=ExperimentEngine(workers=2), **kwargs)
        assert serial == parallel


class TestRunBatched:
    """Block dispatch must be invisible in results, caching and ordering.

    Every case drives :meth:`ExperimentEngine.map` with a ``batch_size``.
    """

    def test_results_identical_at_every_batch_size(self, quick_config):
        reference = ExperimentEngine().map("toy", _draw_trial, quick_config, range(10))
        for batch_size in (1, 3, 4, 10, 99):
            batched = ExperimentEngine().map(
                "toy", _draw_trial, quick_config, range(10), batch_size=batch_size
            )
            assert batched == reference

    def test_parallel_batched_identical_to_serial(self, quick_config):
        serial = ExperimentEngine(workers=1).map("toy", _draw_trial, quick_config, range(8))
        parallel = ExperimentEngine(workers=2).map(
            "toy", _draw_trial, quick_config, range(8), batch_size=3
        )
        assert parallel == serial

    def test_constructor_default_batch_size(self, quick_config):
        engine = ExperimentEngine(batch_size=4)
        results = engine.map("toy", _draw_trial, quick_config, range(6))
        assert results == ExperimentEngine().map("toy", _draw_trial, quick_config, range(6))
        assert engine.last_stats.batch_size == 4

    def test_invalid_batch_size_rejected(self, quick_config):
        with pytest.raises(ConfigurationError):
            ExperimentEngine(batch_size=0)
        with pytest.raises(ConfigurationError):
            ExperimentEngine().map("toy", _draw_trial, quick_config, range(2), batch_size=0)

    def test_batched_cache_is_per_trial(self, quick_config, tmp_path):
        batched = ExperimentEngine(cache_dir=tmp_path, batch_size=3)
        results = batched.map("toy", _draw_trial, quick_config, range(7))
        assert batched.last_stats.executed_trials == 7
        # A later run at a *different* batch size reuses every trial: the
        # cache layout (and the digest) are independent of batching.
        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(7)) == results
        assert resumed.last_stats.cached_trials == 7
        assert resumed.last_stats.executed_trials == 0

    def test_config_batch_size_not_in_digest(self, quick_config):
        bigger = quick_config.with_overrides(batch_size=32)
        assert ExperimentEngine.task_digest("toy", _draw_trial, quick_config) == (
            ExperimentEngine.task_digest("toy", _draw_trial, bigger)
        )

    def test_serial_batched_run_persists_per_trial(self, quick_config, tmp_path):
        """A serial block must not lose completed trials to an interruption."""

        def _fail_on_two(cfg, key):
            if key == 2:
                raise RuntimeError("boom")
            return key

        # Module-level picklability is not needed on the serial path.
        engine = ExperimentEngine(cache_dir=tmp_path, batch_size=4)
        with pytest.raises(RuntimeError):
            engine.map("toy", _fail_on_two, quick_config, range(4))
        digest = ExperimentEngine.task_digest("toy", _fail_on_two, quick_config)
        cached = sorted(p.name for p in (tmp_path / digest).glob("*.pkl"))
        assert cached == [f"{_key_slug(0)}.pkl", f"{_key_slug(1)}.pkl"]

    def test_config_batch_size_reaches_every_figure_runner(self, quick_config):
        """chain/x/capacity honor the config knob like alice-bob does."""
        from repro.experiments.capacity_fig7 import run_capacity_experiment
        from repro.experiments.chain import run_chain_experiment
        from repro.experiments.x_topology import run_x_topology_experiment

        config = quick_config.with_overrides(batch_size=2)
        for runner in (run_chain_experiment, run_x_topology_experiment):
            engine = ExperimentEngine()
            runner(config, engine=engine)
            assert engine.last_stats.batch_size == 2
        engine = ExperimentEngine()
        run_capacity_experiment(config=config, snr_db_values=[10.0, 20.0], engine=engine)
        assert engine.last_stats.batch_size == 2

    def test_engine_batch_size_survives_default_config(self, quick_config):
        """A config that keeps batch_size=1 must not clobber the engine's."""
        engine = ExperimentEngine(batch_size=3)
        run_alice_bob_experiment(quick_config, engine=engine)
        assert engine.last_stats.batch_size == 3
        # An explicitly configured batch size wins over the engine default.
        run_alice_bob_experiment(quick_config.with_overrides(batch_size=2), engine=engine)
        assert engine.last_stats.batch_size == 2

    def test_alice_bob_batched_report_bit_identical(self, quick_config):
        serial = run_alice_bob_experiment(quick_config, engine=ExperimentEngine(workers=1))
        batched = run_alice_bob_experiment(
            quick_config.with_overrides(batch_size=2),
            engine=ExperimentEngine(workers=2),
        )
        assert serial.render() == batched.render()


class TestResume:
    def test_second_run_fully_cached(self, quick_config, tmp_path):
        first = ExperimentEngine(cache_dir=tmp_path)
        results = first.map("toy", _draw_trial, quick_config, range(4))
        assert first.last_stats.executed_trials == 4

        second = ExperimentEngine(cache_dir=tmp_path)
        resumed = second.map("toy", _draw_trial, quick_config, range(4))
        assert resumed == results
        assert second.last_stats.cached_trials == 4
        assert second.last_stats.executed_trials == 0

    def test_partial_resume_recomputes_only_missing(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(4))
        digest = engine.last_stats.digest
        (tmp_path / digest / f"{_key_slug(2)}.pkl").unlink()

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(4)) == results
        assert resumed.last_stats.cached_trials == 3
        assert resumed.last_stats.executed_trials == 1

    def test_corrupt_cache_entry_recomputed(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(2))
        digest = engine.last_stats.digest
        (tmp_path / digest / f"{_key_slug(1)}.pkl").write_bytes(b"torn write")

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(2)) == results
        assert resumed.last_stats.executed_trials == 1

    def test_truncated_cache_entry_recomputed(self, quick_config, tmp_path):
        """A torn write that is a *prefix* of a valid pickle still recomputes.

        Unlike random garbage, a truncated pickle begins with a valid
        opcode stream and only fails at EOF — the resume path must treat
        that as a miss, not crash mid-resume.
        """
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(3))
        digest = engine.last_stats.digest
        victim = tmp_path / digest / f"{_key_slug(1)}.pkl"
        valid = victim.read_bytes()
        assert len(valid) > 2
        victim.write_bytes(valid[: len(valid) // 2])

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(3)) == results
        assert resumed.last_stats.cached_trials == 2
        assert resumed.last_stats.executed_trials == 1

    def test_empty_cache_entry_recomputed(self, quick_config, tmp_path):
        """Zero-byte files (crash between create and write) are misses too."""
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _draw_trial, quick_config, range(2))
        digest = engine.last_stats.digest
        (tmp_path / digest / f"{_key_slug(0)}.pkl").write_bytes(b"")

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _draw_trial, quick_config, range(2)) == results
        assert resumed.last_stats.executed_trials == 1

    def test_none_results_are_cacheable(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        assert engine.map("toy", _none_trial, quick_config, range(2)) == [None, None]
        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _none_trial, quick_config, range(2)) == [None, None]
        assert resumed.last_stats.cached_trials == 2
        assert resumed.last_stats.executed_trials == 0

    def test_experiment_resume_matches_uncached_run(self, quick_config, tmp_path):
        kwargs = dict(snr_db_values=(20.0, 30.0), runs_per_point=1)
        cached_engine = ExperimentEngine(cache_dir=tmp_path)
        first = run_snr_sweep(quick_config, engine=cached_engine, **kwargs)
        resumed = run_snr_sweep(quick_config, engine=ExperimentEngine(cache_dir=tmp_path), **kwargs)
        uncached = run_snr_sweep(quick_config, engine=ExperimentEngine(), **kwargs)
        assert first == resumed == uncached


class TestCacheKeying:
    def test_config_change_invalidates_cache(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.map("toy", _draw_trial, quick_config, range(3))

        reseeded = quick_config.with_overrides(seed=99)
        engine.map("toy", _draw_trial, reseeded, range(3))
        assert engine.last_stats.cached_trials == 0
        assert engine.last_stats.executed_trials == 3

    def test_params_change_invalidates_cache(self, quick_config, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        engine.map("toy", _echo_trial, quick_config, range(3), params={"scale": 1.0})
        engine.map("toy", _echo_trial, quick_config, range(3), params={"scale": 2.0})
        assert engine.last_stats.cached_trials == 0

    def test_digest_stable_across_instances(self, quick_config):
        first = ExperimentEngine.task_digest("toy", _draw_trial, quick_config)
        second = ExperimentEngine.task_digest("toy", _draw_trial, quick_config)
        assert first == second

    def test_undigestable_config_rejected_loudly(self):
        """A config whose only repr embeds memory addresses must be refused.

        ``repr(object())`` is ``<object object at 0x...>`` — a digest built
        from it changes every process start, so resume would silently never
        hit.  The engine now refuses instead of silently falling back.
        """

        class Opaque:
            pass

        with pytest.raises(ConfigurationError, match="stable cache digest"):
            ExperimentEngine.task_digest("toy", _draw_trial, Opaque())

    def test_json_serializable_plain_config_still_digests(self):
        plain = {"seed": 7, "snr_db": 15.0}
        first = ExperimentEngine.task_digest("toy", _draw_trial, plain)
        second = ExperimentEngine.task_digest("toy", _draw_trial, dict(plain))
        assert first == second


class TestCacheKeySlugs:
    """Regression tests for the historical slug collisions.

    The old sanitising slug mapped distinct keys to one cache file —
    ``"a/b"`` and ``"a_b"`` both became ``a_b``; ``("a", "b")`` and
    ``("a_b",)`` both became ``t_a_b`` — so on resume one key could be
    served another key's cached result.  The slug now appends a short
    hash of an injective key encoding.
    """

    @pytest.mark.parametrize(
        "left, right",
        [
            ("a/b", "a_b"),
            (("a", "b"), ("a_b",)),
            (("a", "b"), ("a", "b", "")),
            (1, "00000001"),
            (1, 1.0),
            ("a b", "a.b"),
        ],
    )
    def test_distinct_keys_get_distinct_slugs(self, left, right):
        assert _key_slug(left) != _key_slug(right)

    def test_slugs_stay_filesystem_safe_and_bounded(self):
        slug = _key_slug(("x" * 500, "y/z", 3, 2.5))
        assert len(slug) <= 96 + 9
        assert "/" not in slug

    def test_bool_keys_rejected(self):
        # bool is an int subclass; allowing it would alias True with 1.
        with pytest.raises(ConfigurationError):
            _key_slug(True)

    def test_colliding_keys_resume_to_their_own_results(self, quick_config, tmp_path):
        """Keys the old slug merged now cache — and resume — separately."""
        keys = ["a/b", "a_b", ("a", "b"), ("a_b",)]
        engine = ExperimentEngine(cache_dir=tmp_path)
        results = engine.map("toy", _echo_trial, quick_config, keys)
        assert [r[0] for r in results] == keys

        resumed = ExperimentEngine(cache_dir=tmp_path)
        assert resumed.map("toy", _echo_trial, quick_config, keys) == results
        assert resumed.last_stats.cached_trials == 4
        assert resumed.last_stats.executed_trials == 0


class TestSharedMemoryHandoff:
    """Zero-copy parameter shipping must be invisible except in speed.

    Large ndarray params cross the process boundary as
    ``multiprocessing.shared_memory`` segments instead of being pickled
    per block; results must be bit-identical either way, and the parent
    must unlink every segment when the run ends — including when a worker
    crashes.
    """

    #: Big enough to cross the export threshold (float64 elements).
    _BIG = np.arange(_SHM_MIN_BYTES // 8 + 512, dtype=np.float64)

    def _run(self, config, *, shared_memory, trial=_weighted_trial):
        engine = ExperimentEngine(workers=2, shared_memory=shared_memory)
        results = engine.map(
            "toy", trial, config, range(8),
            params={"weights": self._BIG}, batch_size=2,
        )
        return engine, results

    def test_shm_results_bit_identical_to_pickled(self, quick_config):
        shm_engine, shm_results = self._run(quick_config, shared_memory=True)
        pickled_engine, pickled_results = self._run(quick_config, shared_memory=False)
        assert shm_results == pickled_results
        # The shm run really took the zero-copy path; the control didn't.
        assert shm_engine._last_shm_names
        assert not pickled_engine._last_shm_names

    def test_segments_unlinked_after_run(self, quick_config):
        engine, _ = self._run(quick_config, shared_memory=True)
        for name in engine._last_shm_names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_segments_unlinked_after_worker_crash(self, quick_config):
        engine = ExperimentEngine(workers=2, shared_memory=True)
        with pytest.raises(RuntimeError, match="exploded"):
            engine.map(
                "toy", _crashing_weighted_trial, quick_config, range(8),
                params={"weights": self._BIG}, batch_size=2,
            )
        assert engine._last_shm_names
        for name in engine._last_shm_names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_small_arrays_still_pickled(self, quick_config):
        """Below the size threshold the segment overhead isn't worth it."""
        small = np.arange(16, dtype=np.float64)
        engine = ExperimentEngine(workers=2, shared_memory=True)
        results = engine.map(
            "toy", _weighted_trial, quick_config, range(8),
            params={"weights": small}, batch_size=2,
        )
        assert not engine._last_shm_names
        assert results == [float(small[k % 16]) * (k + 1) for k in range(8)]

    def test_serial_path_matches_parallel_shm(self, quick_config):
        serial = ExperimentEngine(workers=1).map(
            "toy", _weighted_trial, quick_config, range(8),
            params={"weights": self._BIG},
        )
        _, parallel = self._run(quick_config, shared_memory=True)
        assert serial == parallel


class TestRunnerRegistry:
    def test_registry_covers_every_cli_experiment(self):
        assert available_runners() == [
            "capacity", "alice-bob", "x", "chain", "sir", "snr", "summary",
        ]

    def test_get_runner_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_runner("does-not-exist")

    def test_capacity_runner_renders(self, quick_config):
        text = RUNNERS["capacity"].run(quick_config, ExperimentEngine())
        assert "crossover" in text

    def test_alice_bob_runner_matches_direct_call(self, quick_config):
        via_registry = get_runner("alice-bob").run(quick_config, None)
        direct = run_alice_bob_experiment(quick_config).render()
        assert via_registry == direct


class TestTrialFunctionsAreEngineCompatible:
    def test_trial_function_is_picklable_toplevel(self):
        import pickle

        assert pickle.loads(pickle.dumps(run_alice_bob_trial)) is run_alice_bob_trial

    def test_trial_matches_experiment_runs(self, quick_config):
        traditional, cope, anc = run_alice_bob_trial(quick_config, 0)
        report = run_alice_bob_experiment(quick_config)
        assert report.baseline_runs["traditional"][0].throughput == traditional.throughput
        assert report.baseline_runs["cope"][0].throughput == cope.throughput
        assert report.anc_runs[0].throughput == anc.throughput
