"""The three workloads: their inputs, their closed-loop ops and their checks.

Every workload turns ``--seed`` and a pass index into a fixed list of ops
(a *pass*).  The benchmark runs passes back to back, each op starting only
when the previous one returned, until the measuring time is used up.
Figure and traffic passes draw fresh library seeds at each of
:data:`CYCLE` pass indices, so one run averages over many inputs instead
of timing one draw many times; the cost of a traffic pass moves by about
10% from one library seed to the next.  The library only ever sees the
generated configs and specs.

Each op leaves a check behind that yields a digest of its result
(``to_dict()`` minus ``meta``, which holds timings and paths).  Checks run
after the pass, outside its timing and outside any traced region.
:class:`Checker` compares digests with the committed references at the
default seed and, at every seed, with the first time the same op ran in
this process (so later passes, warm reads and traced passes must
reproduce the first untraced pass).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import api
from repro.campaign.server import CampaignServer
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine
from repro.results.model import SCHEMA_VERSION, ExperimentResult
from tracer import op_scope

#: The seed at which outputs are compared with ``reference.json``.
DEFAULT_SEED = 0

#: Ops per pass at each size: config seeds for figures/traffic, and
#: (campaign jobs, engine seeds, read rounds) for the store workload.  A
#: store pass writes once and then repeats its reads ``read rounds`` times,
#: so that the reads are most of its wall time.
SIZES = {
    "full": {"figures": 3, "traffic": 1, "store": (32, 1, 8)},
    "smoke": {"figures": 1, "traffic": 1, "store": (4, 1, 1)},
}

#: Distinct pass inputs per run; pass ``i`` uses inputs ``i % CYCLE``.
CYCLE = 16

#: Campaign jobs in flight at once (``nproc`` on the reference machine).
CAMPAIGN_CONCURRENCY = 2

#: Fewest fetches a store run makes, so its p95 has ten samples beyond it.
MIN_FETCHES = 200


def result_digest(payload: Dict[str, Any]) -> str:
    """Digest of a result document without its ``meta`` block."""
    body = {key: value for key, value in payload.items() if key != "meta"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def config_seeds(workload: str, seed: int, count: int, index: int = 0) -> List[int]:
    """The library seeds of pass ``index`` of one workload seed.

    Stable across processes and Python versions; a smaller ``count`` is a
    prefix of a larger one, so smoke ops are a subset of full-size ops.
    """
    rng = random.Random(f"{workload}:{seed}:{index % CYCLE}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


class CheckFailed(Exception):
    """An op's output is wrong; the message says how."""


def fail_with(message: str) -> Callable[[], str]:
    """The check of an op that already failed."""
    def check() -> str:
        raise CheckFailed(message)
    return check


@dataclass
class PassResult:
    """What one pass did: wall time, work done, per-part timings, op checks."""

    wall_s: float = 0.0
    work: float = 0.0
    parts: Dict[str, float] = field(default_factory=dict)
    fetch_s: List[float] = field(default_factory=list)
    ops: List[Tuple[str, Callable[[], str]]] = field(default_factory=list)

    def op(self, key: str, check: Callable[[], str]) -> None:
        """Record one op: its key and the check that yields its digest."""
        self.ops.append((key, check))

    def add(self, part: str, value: float) -> None:
        self.parts[part] = self.parts.get(part, 0.0) + value


class Checker:
    """Counts ops and failures: references first, then self-consistency."""

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.reference = reference
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, result: PassResult) -> None:
        for key, check in result.ops:
            self.attempted += 1
            try:
                error = self._compare(key, check())
            except CheckFailed as failure:
                error = str(failure)
            if error:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{key}: {error}")
        # Drop the outputs the checks held, so memory does not grow with passes.
        result.ops.clear()

    def _compare(self, key: str, digest: str) -> str:
        if self.reference is not None:
            expected = self.reference.get(key)
            if expected is None:
                return "no reference digest for this op"
            if digest != expected:
                return f"digest {digest} != reference {expected}"
        earlier = self.first.setdefault(key, digest)
        if digest != earlier:
            return f"digest {digest} != first run {earlier}"
        return ""


def _run_op(result: PassResult, key: str, fn: Callable[[], ExperimentResult],
            verify: Callable[[ExperimentResult], str] = lambda out: ""
            ) -> Optional[ExperimentResult]:
    """Run one library call as a closed-loop op and record its check.

    ``verify`` returns what is wrong with the output beyond its digest
    (empty when nothing is).
    """
    try:
        with op_scope(key):
            out = fn()
    except Exception as error:  # an op that raises is a failed op
        result.op(key, fail_with(f"raised {type(error).__name__}: {error}"))
        return None

    def check() -> str:
        problem = verify(out)
        if problem:
            raise CheckFailed(problem)
        return result_digest(out.to_dict())

    result.op(key, check)
    return out


class Workload:
    """Base class: ``setup`` once, ``run_pass`` many times, ``close`` once."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def setup(self) -> None:
        """Start whatever the timed passes need (stores, servers)."""

    def run_pass(self, index: int) -> PassResult:
        """Run pass ``index`` (its inputs repeat every :data:`CYCLE` passes)."""
        raise NotImplementedError

    def enough(self, results: List[PassResult]) -> bool:
        """Whether the run has the samples its metrics need."""
        return bool(results)

    def summary(self, results: List[PassResult]) -> Dict[str, Tuple[float, str]]:
        """The workload's own named rates, for the printed table."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop and remove what :meth:`setup` started."""


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


class ApiRuns(Workload):
    """``api.run`` of fixed experiments at fresh library seeds, serial engine."""

    #: ``(experiment, config fields of its own)`` run at every library seed.
    experiments: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    #: Config fields shared by every run.
    config: Dict[str, Any] = {}
    quick = False
    #: Name of the workload's own rate in the printed table.
    rate_name = ""

    def configs(self, index: int) -> List[Tuple[str, str, ExperimentConfig]]:
        seeds = config_seeds(self.name, self.seed, SIZES[self.size][self.name], index)
        return [
            (f"{name}:seed={s}", name, ExperimentConfig(seed=s, **self.config, **extra))
            for s in seeds
            for name, extra in self.experiments
        ]

    def work(self, out: ExperimentResult) -> float:
        """The work one result stands for, counted by :attr:`rate_name`."""
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        configs = self.configs(index)
        result = PassResult()
        started = time.perf_counter()
        for key, name, config in configs:
            out = _run_op(result, key, lambda: api.run(
                name, config=config, engine=ExperimentEngine(workers=1), quick=self.quick))
            if out is not None:
                result.work += self.work(out)
        result.wall_s = time.perf_counter() - started
        return result

    def summary(self, results: List[PassResult]) -> Dict[str, Tuple[float, str]]:
        wall = sum(r.wall_s for r in results)
        return {self.rate_name: (_rate(sum(r.work for r in results), wall), "1/s")}


class Figures(ApiRuns):
    """Fig. 9, 10 and 12 testbed runs at one small fixed config, no cache."""

    name = "figures"
    rate_name = "trials_per_s"
    experiments = (("alice-bob", {}), ("x", {}), ("chain", {}))
    config = dict(runs=2, packets_per_run=3, payload_bits=512)

    def work(self, out: ExperimentResult) -> float:
        return out.meta["engine"]["total_trials"]


class Traffic(ApiRuns):
    """``offered_load_sweep`` (CSMA/BEB) and ``queueing_delay`` (TDMA)."""

    name = "traffic"
    rate_name = "sim_frames_per_s"
    experiments = (("offered_load_sweep", {}), ("queueing_delay", {"mac_policy": "scheduled"}))
    # A horizon longer than the scenarios' 48-frame default.
    config = dict(runs=1, payload_bits=512, sim_duration=64.0)
    quick = True

    def work(self, out: ExperimentResult) -> float:
        meta = out.meta
        cells = len(meta["sweep_values"]) * meta["runs"] * len(meta["schemes"])
        return cells * out.config["sim_duration"]


class _ServerThread:
    """One in-process :class:`CampaignServer` on its own event loop thread."""

    def __init__(self, store_root: Path) -> None:
        import asyncio

        self._asyncio = asyncio
        self.loop = asyncio.new_event_loop()
        self.server = CampaignServer(store=ResultStore(store_root), concurrency=1)
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="campaign-server", daemon=True)
        self.thread.start()
        if not started.wait(timeout=30):
            raise RuntimeError("campaign server did not start")

    def get(self, path: str) -> Tuple[int, bytes]:
        """One GET over a fresh connection (the server closes each one)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def close(self) -> None:
        future = self._asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


class Store(Workload):
    """Both on-disk stores, written then read, plus HTTP fetches."""

    name = "store"

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        jobs, engine_runs, self.read_rounds = SIZES[size][self.name]
        job_seeds, engine_seeds = (
            config_seeds("store-campaign", seed, jobs),
            config_seeds("store-engine", seed, engine_runs),
        )
        self.spec = CampaignSpec(
            experiment="capacity", base={"runs": 1}, axes={"seed": tuple(job_seeds)},
        )
        self.jobs = self.spec.jobs()
        self.engine_configs = [ExperimentConfig(runs=1, seed=s) for s in engine_seeds]
        self.store_root = workdir / "store"
        self.cache_root = workdir / "trial-cache"
        self.server: Optional[_ServerThread] = None
        self.retired = 0

    def setup(self) -> None:
        self.store_root.mkdir(parents=True, exist_ok=True)
        self.server = _ServerThread(self.store_root)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def run_pass(self, index: int) -> PassResult:
        # Capacity jobs cost the same at every seed: one grid serves every pass.
        # The last pass's stores are renamed away, not deleted, so no deletions
        # run beside the timed writes; close() removes them all.
        for root in (self.store_root, self.cache_root):
            if root.exists():
                self.retired += 1
                root.rename(self.workdir / f"retired-{self.retired}")
        store = ResultStore(self.store_root)
        result = PassResult()
        started = time.perf_counter()
        self._campaign(result, store, "cold")
        self._engine(result, "engine_cold")
        for _ in range(self.read_rounds):
            self._campaign(result, store, "resume")
            self._fetch(result, store)
            self._engine(result, "engine_warm")
        result.wall_s = time.perf_counter() - started
        return result

    def _campaign(self, result: PassResult, store: ResultStore, part: str) -> None:
        expected = "completed" if part == "cold" else "cached"
        started = time.perf_counter()
        try:
            with op_scope(f"campaign:{part}"):
                report = api.run_campaign(
                    self.spec, store=store, concurrency=CAMPAIGN_CONCURRENCY, retries=0)
            statuses = {o.job.digest: o.status for o in report.outcomes}
        except Exception as error:  # every job of the grid counts as failed
            statuses = {job.digest: f"raised {type(error).__name__}: {error}"
                        for job in self.jobs}
        result.add(f"{part}_s", time.perf_counter() - started)
        result.add(f"{part}_jobs", len(self.jobs))
        for job in self.jobs:
            key = f"job:{job.config.seed}"
            status = statuses.get(job.digest)
            if status != expected:
                result.op(key, fail_with(f"{part} campaign: {status}"))
            else:
                result.op(key, self._stored_digest(store, job.digest))

    @staticmethod
    def _stored_digest(store: ResultStore, digest: str) -> Callable[[], str]:
        def check() -> str:
            raw = store.get_raw(digest)
            if raw is None:
                raise CheckFailed("no stored document")
            return result_digest(json.loads(raw))
        return check

    @staticmethod
    def _fetched_digest(store: ResultStore, digest: str, status: int, body: bytes
                        ) -> Callable[[], str]:
        def check() -> str:
            if status != 200:
                raise CheckFailed(f"fetch status {status}")
            text = body.decode("utf-8")
            if text != store.get_raw(digest):
                raise CheckFailed("fetched bytes differ from the stored document")
            try:
                document = ExperimentResult.from_json(text)
            except Exception as error:
                raise CheckFailed(f"invalid document: {error}") from None
            if document.schema_version != SCHEMA_VERSION:
                raise CheckFailed(f"schema {document.schema_version}")
            return result_digest(json.loads(text))
        return check

    def _fetch(self, result: PassResult, store: ResultStore) -> None:
        assert self.server is not None
        for job in self.jobs:
            started = time.perf_counter()
            try:
                status, body = self.server.get(f"/results/{job.digest}")
            except OSError as error:
                status, body = 0, str(error).encode()
            result.fetch_s.append(time.perf_counter() - started)
            result.op(f"job:{job.config.seed}",
                      self._fetched_digest(store, job.digest, status, body))

    def _engine(self, result: PassResult, part: str) -> None:
        started = time.perf_counter()
        served_key = "cached_trials" if part == "engine_warm" else "executed_trials"

        def all_served(out: ExperimentResult) -> str:
            stats = out.meta["engine"]
            if stats[served_key] == stats["total_trials"]:
                return ""
            return f"{part}: {stats[served_key]} of {stats['total_trials']} trials"

        for config in self.engine_configs:
            engine = ExperimentEngine(workers=1, cache_dir=self.cache_root)
            out = _run_op(result, f"engine:{config.seed}",
                          lambda: api.run("capacity", config=config, engine=engine),
                          all_served)
            if out is not None:
                result.add(f"{part}_trials", out.meta["engine"][served_key])
        result.add(f"{part}_s", time.perf_counter() - started)

    def enough(self, results: List[PassResult]) -> bool:
        return sum(len(r.fetch_s) for r in results) >= MIN_FETCHES

    def summary(self, results: List[PassResult]) -> Dict[str, Tuple[float, str]]:
        def total(part: str) -> float:
            return sum(r.parts.get(part, 0.0) for r in results)

        fetches = sorted(s for r in results for s in r.fetch_s)
        return {
            "cold_jobs_per_s": (_rate(total("cold_jobs"), total("cold_s")), "1/s"),
            "resume_jobs_per_s": (_rate(total("resume_jobs"), total("resume_s")), "1/s"),
            "fetch_p50_ms": (percentile(fetches, 0.50) * 1000.0, "ms"),
            "fetch_p95_ms": (percentile(fetches, 0.95) * 1000.0, "ms"),
            "fetches": (float(len(fetches)), "count"),
            "cached_trials_per_s": (
                _rate(total("engine_warm_trials"), total("engine_warm_s")), "1/s"),
        }


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


WORKLOADS = {cls.name: cls for cls in (Figures, Traffic, Store)}
