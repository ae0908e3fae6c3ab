"""Single public facade over every experiment in the reproduction.

The figure runners (:data:`repro.experiments.runner.RUNNERS`) and the
scenario sweeps (:data:`repro.experiments.scenarios.SCENARIOS`) historically
lived in two registries with two dispatch paths.  This module merges them
into one namespace with one contract:

* :func:`list_experiments` — every runnable name (figures + scenarios);
* :func:`get_experiment` — the :class:`ExperimentEntry` behind a name;
* :func:`run` — execute any experiment and return a typed
  :class:`~repro.results.model.ExperimentResult` carrying the result
  tables, the config snapshot + digest, and the executing engine's
  cache/timing statistics.

Quickstart::

    from repro import api
    from repro.experiments import ExperimentConfig, ExperimentEngine

    result = api.run("alice-bob", config=ExperimentConfig.quick())
    print(result.scalars["anc_delivery_ratio"])
    print(result.to_json())                 # machine-readable export

    sweep = api.run("chain_sweep", config=ExperimentConfig.quick(),
                    engine=ExperimentEngine(workers=4), quick=True)
    gains = sweep.get_series("cells")

Text output is a view: ``render_text(result)`` (from
:mod:`repro.results`) reproduces the legacy reports byte-for-byte.
See ``docs/API.md`` for the full reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.experiments.runner import RUNNERS
from repro.experiments.scenarios import SCENARIOS, run_scenario
from repro.results.adapters import attach_engine_meta, scenario_result
from repro.results.model import ExperimentResult

__all__ = [
    "ExperimentEntry",
    "experiment_entries",
    "get_experiment",
    "list_experiments",
    "run",
    "run_campaign",
    "submit",
]

#: Signature an entry's executor satisfies: (config, engine, quick) -> result.
_EntryFn = Callable[[ExperimentConfig, Optional[ExperimentEngine], bool], ExperimentResult]


@dataclass(frozen=True)
class ExperimentEntry:
    """One runnable experiment in the unified namespace.

    Attributes
    ----------
    name:
        The public name :func:`run` accepts (figure CLI name or scenario
        registry name).
    description:
        One-line description shown in ``--help`` epilogs.
    kind:
        ``"figure"`` for the paper-figure runners, ``"scenario"`` for
        registered scenario sweeps.
    execute:
        Executes the experiment and returns its structured result
        (without engine metadata — :func:`run` attaches that).
    """

    name: str
    description: str
    kind: str
    execute: _EntryFn


def _figure_entry(name: str) -> ExperimentEntry:
    """Wrap one figure runner spec as a unified entry."""
    spec = RUNNERS[name]

    def execute(
        config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool
    ) -> ExperimentResult:
        """Run the figure experiment (``quick`` has no figure-side effect)."""
        overrides = config.sim_overrides()
        if overrides:
            raise ConfigurationError(
                f"figure experiment {spec.name!r} ignores the traffic "
                f"knob(s) {', '.join(sorted(overrides))}; they apply only "
                "to the time-domain scenarios (offered_load_sweep, "
                "queueing_delay)"
            )
        return spec.run_result(config, engine)

    return ExperimentEntry(
        name=spec.name, description=spec.description, kind="figure", execute=execute
    )


def _scenario_entry(name: str) -> ExperimentEntry:
    """Wrap one scenario spec as a unified entry."""
    spec = SCENARIOS[name]

    def execute(
        config: ExperimentConfig, engine: Optional[ExperimentEngine], quick: bool
    ) -> ExperimentResult:
        """Run the scenario sweep (``quick`` thins the sweep axis)."""
        report = run_scenario(spec, config, engine=engine, quick=quick)
        return scenario_result(report, config)

    return ExperimentEntry(
        name=spec.name, description=spec.description, kind="scenario", execute=execute
    )


def _build_registry() -> Dict[str, ExperimentEntry]:
    """Merge the figure and scenario registries into one namespace."""
    registry: Dict[str, ExperimentEntry] = {}
    for name in RUNNERS:
        registry[name] = _figure_entry(name)
    for name in SCENARIOS:
        if name in registry:
            raise ConfigurationError(
                f"scenario name {name!r} collides with a figure experiment"
            )
        registry[name] = _scenario_entry(name)
    return registry


#: The unified registry, keyed by public name.  Figures first (in their
#: registry order), then scenarios (in registration order).
REGISTRY: Dict[str, ExperimentEntry] = _build_registry()


def experiment_entries(kind: Optional[str] = None) -> List[ExperimentEntry]:
    """Every registered entry, optionally filtered by kind."""
    if kind is not None and kind not in ("figure", "scenario"):
        raise ConfigurationError(
            f"unknown experiment kind {kind!r}; choose 'figure' or 'scenario'"
        )
    return [entry for entry in REGISTRY.values() if kind is None or entry.kind == kind]


def list_experiments(kind: Optional[str] = None) -> List[str]:
    """Names of every runnable experiment, optionally filtered by kind."""
    return [entry.name for entry in experiment_entries(kind)]


def get_experiment(name: str) -> ExperimentEntry:
    """Look up one experiment in the unified namespace."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {', '.join(REGISTRY)}"
        ) from None


def run(
    name: str,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ExperimentResult:
    """Execute any registered experiment and return its structured result.

    Parameters
    ----------
    name:
        A figure name (``"alice-bob"``, ``"capacity"``, ...) or a
        scenario name (``"chain_sweep"``, ``"mesh_sweep"``, ...) — see
        :func:`list_experiments`.
    config:
        The experiment configuration; defaults to ``ExperimentConfig()``.
    engine:
        How Monte-Carlo trials execute (serial, parallel, resumed from a
        disk cache); defaults to a fresh serial engine.  The engine's
        cache/timing statistics for this run are attached to the result
        under ``meta["engine"]``.
    quick:
        Scenarios only: thin the sweep axis to its smoke-test values
        (:meth:`ScenarioSpec.values_for`).  Figures ignore it.

    Returns
    -------
    ExperimentResult
        The typed result; round-trips losslessly through
        ``ExperimentResult.from_dict(result.to_dict())`` and renders to
        the legacy text report via
        :func:`repro.results.render.render_text`.
    """
    entry = get_experiment(name)
    cfg = config if config is not None else ExperimentConfig()
    eng = default_engine(engine)
    mark = len(eng.stats_log)
    started = time.perf_counter()
    result = entry.execute(cfg, eng, quick)
    elapsed = time.perf_counter() - started
    return attach_engine_meta(result, eng, eng.stats_log[mark:], elapsed)


def run_campaign(
    spec,
    store=None,
    concurrency: int = 4,
    retries: int = 2,
    backoff: float = 0.5,
    progress=None,
):
    """Run a declarative sweep grid locally and return its report.

    The facade entry into :mod:`repro.campaign`: expands ``spec``
    (a :class:`~repro.campaign.spec.CampaignSpec`, or a mapping/JSON
    text in its ``anc-repro.campaign/1`` wire format) into its job grid
    and executes it on an asyncio queue with bounded ``concurrency``
    and per-job retry.  With ``store`` set (a directory path or a
    :class:`~repro.campaign.store.ResultStore`), completed jobs are
    published to the content-addressed result store and a re-run
    resumes from it — already-stored jobs are not recomputed.

    Returns a :class:`~repro.campaign.runner.CampaignReport`; see
    ``docs/CAMPAIGNS.md`` for the grid-spec format and examples.
    """
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec

    if isinstance(spec, str):
        spec = CampaignSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = CampaignSpec.from_dict(spec)
    runner = CampaignRunner(
        store=store,
        concurrency=concurrency,
        retries=retries,
        backoff=backoff,
        progress=progress,
    )
    return runner.run_sync(spec)


def submit(spec, base_url: str, wait: bool = False, timeout: float = 300.0):
    """Submit a campaign spec to a running campaign server over HTTP.

    ``spec`` accepts the same forms as :func:`run_campaign`.  Returns
    the server's status payload for the (idempotently) admitted
    campaign; with ``wait=True`` the call polls until the campaign
    leaves the ``running`` state (or ``timeout`` seconds pass) and
    returns the terminal status instead.
    """
    from repro.campaign import client
    from repro.campaign.spec import CampaignSpec

    if isinstance(spec, str):
        spec = CampaignSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = CampaignSpec.from_dict(spec)
    status = client.submit_campaign(base_url, spec)
    if wait:
        return client.wait_for_campaign(base_url, status["campaign"], timeout=timeout)
    return status
