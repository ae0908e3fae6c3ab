"""Parallel, resumable execution engine for Monte-Carlo experiments.

Every figure-reproduction runner repeats an independent *trial* — one
testbed run, one sweep point — ``N`` times and aggregates the results.
Because each trial derives all of its randomness from
:meth:`~repro.experiments.config.ExperimentConfig.run_rng` (a dedicated
``np.random.Generator`` substream seeded by the master seed and the trial
index), trials are independent of execution order and of the process that
executes them.  The :class:`ExperimentEngine` exploits exactly that
property:

* **Parallelism** — with ``workers > 1`` trials fan out across a
  :class:`concurrent.futures.ProcessPoolExecutor`; results are re-ordered
  by trial key afterwards, so the output is *bit-identical* to serial
  execution (``workers=1``), just faster.
* **Resumability** — with a ``cache_dir`` set, every completed trial is
  pickled to disk under a digest of (library version, experiment name,
  trial function, config fields, sweep parameters).  A re-run of an
  interrupted paper-scale sweep loads the finished trials from the cache
  and only executes the missing ones.  Changing any config field (or the
  sweep grid) changes the digest, so results from a different
  configuration are never reused.  The digest cannot see arbitrary code
  edits, though — only the package version — so after changing
  simulation code in place, clear the cache directory (or bump
  ``repro.__version__``) before resuming.

The engine is deliberately generic: a trial function is any picklable
top-level callable ``trial_fn(config, key, **params)``, and a trial key is
any int/float/str/tuple that identifies the trial (a run index, an SNR
value, ...).  All seven runners in :mod:`repro.experiments` execute
through :meth:`ExperimentEngine.map`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, is_dataclass
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

import repro
from repro.exceptions import ConfigurationError

#: Signature every trial function must satisfy: ``(config, key, **params)``.
TrialFn = Callable[..., Any]

#: Accepted trial-key types (must be stable under ``repr`` for cache slugs).
TrialKey = Union[int, float, str, tuple]

#: Where ``--resume`` caches trials when no explicit directory is given.
DEFAULT_CACHE_DIR = Path(".anc_cache")

#: Sentinel distinguishing "not in the cache" from a cached ``None`` result.
_CACHE_MISS = object()

_SLUG_SANITISER = re.compile(r"[^A-Za-z0-9_.+-]+")

#: Arrays at or above this many bytes ride to workers through
#: :mod:`multiprocessing.shared_memory` instead of being pickled into the
#: task payload.  Below it, the segment bookkeeping costs more than the
#: pickle copy it saves.
_SHM_MIN_BYTES = 1 << 16


@dataclass(frozen=True)
class _SharedArrayRef:
    """Picklable stand-in for an ndarray parked in a shared-memory segment.

    Crossing the process boundary this is all that gets pickled — name,
    shape, dtype string — instead of the array's bytes; the worker
    re-materializes a read-only view onto the same physical pages.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _untrack_shared_memory(shm: SharedMemory) -> None:
    """Detach a worker-side attachment from the resource tracker.

    The parent process owns segment lifetime (create *and* unlink); a
    worker that merely attaches must not let its resource tracker also
    claim the segment, or interpreter shutdown double-unlinks and logs
    spurious leak warnings.  Best-effort: tracker internals are private,
    and failing to untrack is cosmetic, not incorrect.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def _export_shared_arrays(
    kwargs: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[SharedMemory]]:
    """Move large array params into shared memory for zero-copy handoff.

    Returns the kwargs with each exported ndarray replaced by a
    :class:`_SharedArrayRef`, plus the created segments (the caller must
    close *and* unlink them once every worker is done — including when a
    worker crashes).  Small arrays, object arrays and non-array values
    pass through untouched.
    """
    exported: Dict[str, Any] = {}
    segments: List[SharedMemory] = []
    for name, value in kwargs.items():
        if (
            isinstance(value, np.ndarray)
            and not value.dtype.hasobject
            and value.nbytes >= _SHM_MIN_BYTES
        ):
            shm = SharedMemory(create=True, size=value.nbytes)
            view: np.ndarray = np.ndarray(value.shape, dtype=value.dtype, buffer=shm.buf)
            view[...] = value
            segments.append(shm)
            exported[name] = _SharedArrayRef(shm.name, value.shape, value.dtype.str)
        else:
            exported[name] = value
    return exported, segments


def _resolve_shared_arrays(
    kwargs: Dict[str, Any],
) -> Tuple[Dict[str, Any], List[SharedMemory]]:
    """Worker-side inverse of :func:`_export_shared_arrays`.

    Replaces every :class:`_SharedArrayRef` with a read-only ndarray view
    onto the attached segment.  The returned handles must stay open for
    as long as the views are in use (the views alias the mapping).
    """
    resolved = dict(kwargs)
    handles: List[SharedMemory] = []
    for name, value in kwargs.items():
        if isinstance(value, _SharedArrayRef):
            shm = SharedMemory(name=value.name)
            _untrack_shared_memory(shm)
            handles.append(shm)
            view: np.ndarray = np.ndarray(value.shape, dtype=np.dtype(value.dtype), buffer=shm.buf)
            view.setflags(write=False)
            resolved[name] = view
    return resolved, handles


def _execute_trial_block(
    trial_fn: "TrialFn", config: Any, keys: List["TrialKey"], kwargs: Dict[str, Any]
) -> List[Any]:
    """Execute one batch of trials in order; the unit a parallel ``map`` ships.

    Top-level (hence picklable) so a whole block crosses the process
    boundary as one task: one submit, one pickle round-trip and one
    future per ``batch_size`` trials instead of per trial.  Results come
    back in ``keys`` order, so batching cannot reorder anything.  Any
    shared-memory array refs in ``kwargs`` are resolved to views here and
    released when the block finishes.
    """
    resolved, handles = _resolve_shared_arrays(kwargs)
    try:
        return [trial_fn(config, key, **resolved) for key in keys]
    finally:
        del resolved  # drop array views before closing their mappings
        for handle in handles:
            handle.close()


def _key_token(key: TrialKey) -> str:
    """Injective text encoding of a trial key (hashed into the slug).

    Unlike the display slug, this encoding never collides: values are
    type-tagged (``1`` vs ``"1"``), strings are length-prefixed (so tuple
    joins cannot be forged by embedded separators), and tuples keep their
    structure.
    """
    if isinstance(key, bool):
        raise ConfigurationError("trial keys must be int, float, str or tuple")
    if isinstance(key, int):
        return f"i{key}"
    if isinstance(key, float):
        return f"f{key!r}"
    if isinstance(key, str):
        return f"s{len(key)}:{key}"
    if isinstance(key, tuple):
        return "t(" + ",".join(_key_token(part) for part in key) + ")"
    raise ConfigurationError("trial keys must be int, float, str or tuple")


def _key_base(key: TrialKey) -> str:
    """Human-readable (possibly colliding) base of a cache-file name."""
    if isinstance(key, int):
        return f"{key:08d}"
    if isinstance(key, tuple):
        return "t_" + "_".join(_key_base(part) for part in key)
    text = repr(key) if isinstance(key, float) else str(key)
    return _SLUG_SANITISER.sub("_", text) or "_"


def _key_slug(key: TrialKey) -> str:
    """Filesystem-safe, unique-per-key name for one trial's cache file.

    ``<readable base>-<8 hex digest>``: the base keeps cache directories
    human-navigable (int keys stay zero-padded, hence sorted), while the
    digest of the injective :func:`_key_token` encoding makes the name
    collision-free — ``"a/b"`` vs ``"a_b"``, ``("a", "b")`` vs
    ``("a_b",)`` and ``1`` vs ``"00000001"`` all sanitize to the same
    base but hash apart, so resume can never serve one key's cached
    result for another.  The base is truncated to bound file-name length;
    uniqueness rides entirely on the digest.
    """
    token = _key_token(key)
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()[:8]
    return f"{_key_base(key)[:96]}-{digest}"


@dataclass(frozen=True)
class EngineStats:
    """Bookkeeping of one :meth:`ExperimentEngine.map` invocation.

    Attributes
    ----------
    total_trials:
        Number of trials requested.
    executed_trials:
        Trials actually computed in this invocation.
    cached_trials:
        Trials satisfied from the on-disk cache (``resume``).
    workers:
        Worker processes the engine was configured with.
    digest:
        The cache digest of (experiment, trial function, config, params).
    """

    total_trials: int
    executed_trials: int
    cached_trials: int
    workers: int
    digest: str
    batch_size: int = 1
    #: Wall-clock seconds the invocation took (cache loading included).
    elapsed_seconds: float = 0.0


class ExperimentEngine:
    """Fans independent experiment trials out across process workers.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) executes trials
        serially in-process — the reference behaviour every parallel run
        must be bit-identical to.
    cache_dir:
        When set, completed trials are pickled to
        ``<cache_dir>/<digest>/<key>.pkl`` as soon as they finish, and
        later invocations with the same digest load them instead of
        recomputing — this is what makes interrupted paper-scale sweeps
        resumable.  ``None`` (the default) disables all disk I/O.
    batch_size:
        Default number of trials shipped to a worker as one block (the
        ``batch_size`` of :meth:`map`).  ``1`` (the default) dispatches
        trial by trial — the reference behaviour.  Batching only amortizes
        dispatch overhead; results and the per-trial cache layout are
        identical at every batch size.
    shared_memory:
        When ``True`` (the default), large ndarray ``params`` cross the
        process boundary as :mod:`multiprocessing.shared_memory` segments
        instead of being pickled into every task — zero-copy handoff for
        trial-block waveform arrays.  Results are bit-identical either
        way (workers see the same values, read-only); the knob exists for
        differential testing and as an escape hatch.  Segments are always
        unlinked by the parent, worker crashes included.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        batch_size: int = 1,
        shared_memory: bool = True,
    ) -> None:
        """See the class docstring for the constructor-knob semantics."""
        if int(workers) < 1:
            raise ConfigurationError("workers must be a positive integer")
        if int(batch_size) < 1:
            raise ConfigurationError("batch_size must be a positive integer")
        self.workers = int(workers)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.batch_size = int(batch_size)
        self.shared_memory = bool(shared_memory)
        #: Segment names created by the most recent parallel :meth:`map`
        #: (diagnostics/tests: each must be unlinked once the call ends).
        self._last_shm_names: List[str] = []
        #: Stats of the most recent :meth:`map` call (``None`` before any).
        self.last_stats: Optional[EngineStats] = None
        #: Stats of every :meth:`map` call this engine executed, in order.
        #: The structured-results pipeline slices this log to attach the
        #: cache/timing metadata of exactly one experiment to its result
        #: (see :func:`repro.results.adapters.attach_engine_meta`).
        self.stats_log: List[EngineStats] = []

    # ------------------------------------------------------------------
    # Cache keying
    # ------------------------------------------------------------------
    @staticmethod
    def task_digest(
        experiment: str,
        trial_fn: TrialFn,
        config: Any,
        params: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Stable digest identifying one (experiment, config, params) task.

        Any change to the library version, the experiment name, the trial
        function's qualified name, a config field, or a sweep parameter
        yields a different digest, so cached trials can never leak across
        configurations (in-place code edits within one version are the
        one thing it cannot detect — see the module docstring).

        One config field is deliberately excluded: ``batch_size``, an
        execution knob that provably does not change trial results.
        Configs that are neither snapshot-bearing, nor dataclasses, nor
        plainly JSON-serializable are rejected with
        :class:`~repro.exceptions.ConfigurationError`: silently digesting
        their ``repr`` would bake memory addresses into the digest and
        resume would never hit.
        """
        snapshot = getattr(config, "snapshot", None)
        if callable(snapshot):
            # Configs that curate their own JSON view (ExperimentConfig
            # omits disabled impairments so old digests stay valid) are
            # digested through it.
            config_repr: Any = dict(snapshot())
            config_repr.pop("batch_size", None)
        elif is_dataclass(config) and not isinstance(config, type):
            config_repr = asdict(config)
            # Execution knobs that provably do not change trial results
            # (the differential suite enforces this for batch_size) stay
            # out of the digest so caches survive changing them.
            config_repr.pop("batch_size", None)
        else:
            try:
                json.dumps(config)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"cannot build a stable cache digest for config of type "
                    f"{type(config).__name__}: it is not a dataclass, has no "
                    "snapshot() method, and is not JSON-serializable (its repr "
                    "would embed memory addresses, so resume would never hit)"
                ) from None
            config_repr = config
        payload = {
            "version": getattr(repro, "__version__", "0"),
            "experiment": experiment,
            "trial_fn": f"{trial_fn.__module__}.{trial_fn.__qualname__}",
            "config": config_repr,
            "params": dict(params) if params else {},
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]

    # ------------------------------------------------------------------
    # Cache I/O
    # ------------------------------------------------------------------
    def _trial_path(self, digest: str, key: TrialKey) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / digest / f"{_key_slug(key)}.pkl"

    @staticmethod
    def _load_cached(path: Optional[Path]) -> Any:
        """Load one cached trial; returns :data:`_CACHE_MISS` if unavailable.

        The sentinel (rather than ``None``) keeps trials whose legitimate
        result is ``None`` cacheable.  Any unpickling failure — torn
        write, garbled bytes, a class that no longer exists — counts as a
        miss and the trial is recomputed.
        """
        if path is None or not path.is_file():
            return _CACHE_MISS
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            return _CACHE_MISS

    @staticmethod
    def _store_cached(path: Optional[Path], result: Any) -> None:
        """Atomically persist one completed trial (write-temp-then-rename)."""
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def map(
        self,
        experiment: str,
        trial_fn: TrialFn,
        config: Any,
        trial_keys: Iterable[TrialKey],
        params: Optional[Mapping[str, Any]] = None,
        batch_size: Optional[int] = None,
    ) -> List[Any]:
        """Execute ``trial_fn(config, key, **params)`` for every key.

        Results are returned in ``trial_keys`` order regardless of
        completion order, worker count, batch size, or cache hits, which
        is what guarantees parallel runs aggregate identically to serial
        ones.

        Parameters
        ----------
        experiment:
            Name of the experiment (part of the cache digest).
        trial_fn:
            Picklable top-level callable executing one trial.  It must
            draw all randomness from generators seeded by ``config`` and
            ``key`` (e.g. :meth:`ExperimentConfig.run_rng`) — never from
            global state — or parallel execution would not be
            reproducible.
        config:
            Passed verbatim as the first argument; its fields are part of
            the cache digest.
        trial_keys:
            Keys identifying the trials (run indices, sweep points, ...).
        params:
            Extra keyword arguments passed to every trial; also part of
            the cache digest (e.g. the sweep grid).
        batch_size:
            Trials per dispatched block; ``None`` uses the engine's
            configured default.  The block is purely an execution unit —
            each trial is still cached under its own key, so a sweep
            interrupted mid-block resumes at per-trial granularity and a
            cache written at one batch size is reused at any other.
        """
        started = time.perf_counter()
        keys = list(trial_keys)
        if len(set(map(_key_slug, keys))) != len(keys):
            raise ConfigurationError("trial keys must be unique")
        effective_batch = self.batch_size if batch_size is None else int(batch_size)
        if effective_batch < 1:
            raise ConfigurationError("batch_size must be a positive integer")
        kwargs = dict(params) if params else {}
        digest = self.task_digest(experiment, trial_fn, config, params)

        results: Dict[str, Any] = {}
        pending: List[TrialKey] = []
        for key in keys:
            cached = self._load_cached(self._trial_path(digest, key))
            if cached is not _CACHE_MISS:
                results[_key_slug(key)] = cached
            else:
                pending.append(key)

        blocks = [
            pending[start : start + effective_batch]
            for start in range(0, len(pending), effective_batch)
        ]
        if self.workers == 1 or len(blocks) <= 1:
            # Serial execution gains nothing from blocks (no pickling or
            # future bookkeeping to amortize), so keep the per-trial
            # execute-then-persist loop: an interruption never loses a
            # completed trial from the resume cache.
            for key in pending:
                result = trial_fn(config, key, **kwargs)
                self._store_cached(self._trial_path(digest, key), result)
                results[_key_slug(key)] = result
        else:
            ship_kwargs = kwargs
            shm_segments: List[SharedMemory] = []
            if self.shared_memory:
                ship_kwargs, shm_segments = _export_shared_arrays(kwargs)
            self._last_shm_names = [segment.name for segment in shm_segments]
            try:
                max_workers = min(self.workers, len(blocks))
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = {
                        pool.submit(
                            _execute_trial_block, trial_fn, config, block, ship_kwargs
                        ): block
                        for block in blocks
                    }
                    for future in as_completed(futures):
                        block = futures[future]
                        # Persist incrementally so an interruption after this
                        # point never re-runs this block's trials.
                        for key, result in zip(block, future.result()):
                            self._store_cached(self._trial_path(digest, key), result)
                            results[_key_slug(key)] = result
            finally:
                # The parent owns segment lifetime: close and unlink even
                # when a worker crashed or the pool broke, or the segments
                # would outlive the run in /dev/shm.
                for segment in shm_segments:
                    segment.close()
                    try:
                        segment.unlink()
                    except FileNotFoundError:  # pragma: no cover - defensive
                        pass

        self.last_stats = EngineStats(
            total_trials=len(keys),
            executed_trials=len(pending),
            cached_trials=len(keys) - len(pending),
            workers=self.workers,
            digest=digest,
            batch_size=effective_batch,
            elapsed_seconds=time.perf_counter() - started,
        )
        self.stats_log.append(self.last_stats)
        return [results[_key_slug(key)] for key in keys]


def default_engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    """The engine a runner should use: the caller's, or a serial fallback."""
    return engine if engine is not None else ExperimentEngine()
