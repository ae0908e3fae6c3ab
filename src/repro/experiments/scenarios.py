"""The scenario registry: N-node workloads declared as data.

A :class:`ScenarioSpec` describes a whole experiment family in one
declaration — which topology generator builds the network, what the sweep
axis is, which values it takes, which schemes compete — plus a picklable
trial function that executes one ``(sweep value, run index)`` cell.  The
generic driver :func:`run_scenario` then provides everything the figure
runners get from PR 1's runner registry for free:

* **engine parallelism / caching** — every cell of the
  ``sweep value x run`` grid is one
  :class:`~repro.experiments.engine.ExperimentEngine` trial, so
  ``--workers`` fans the whole grid out and ``--resume`` caches it;
* **deterministic aggregation** — cells are keyed by ``(value, run)``
  and re-ordered after execution, so parallel runs render byte-identical
  summary tables;
* **CLI dispatch** — ``python -m repro.cli run <scenario>`` resolves the
  name through :data:`SCENARIOS` exactly like figure names resolve
  through :data:`~repro.experiments.runner.RUNNERS`.

See ``docs/SCENARIOS.md`` for the authoring guide (anatomy of a spec, the
topology generator API, the scheduler contract, and a worked example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import ExperimentEngine, default_engine
from repro.protocols.base import RunResult

#: Signature of a scenario trial: ``(config, (sweep_value, run_index),
#: **params) -> {scheme: {metric: float}}``.  Must be a picklable
#: top-level callable so the engine can dispatch it to process workers.
ScenarioTrialFn = Callable[..., Dict[str, Dict[str, float]]]


def summarize_run(result: RunResult) -> Dict[str, float]:
    """Flatten one protocol run into the plain floats a trial returns.

    Engine trials must return picklable, version-stable data; scenario
    trials therefore reduce each :class:`RunResult` to its headline
    numbers instead of shipping the full object across processes.
    """
    return {
        "throughput": float(result.throughput),
        "delivered": float(result.packets_delivered),
        "offered": float(result.packets_offered),
        "mean_ber": float(result.mean_ber),
        "slots": float(result.slots_used),
    }


def combine_runs(results: Sequence[RunResult]) -> Dict[str, float]:
    """Aggregate several protocol runs that share one scenario cell.

    The mesh scenario executes one protocol instance per ANC pair plus
    one for the routed leftovers; their slots are serial in time, so the
    cell's throughput is total useful bits over total air time.
    """
    if not results:
        raise ConfigurationError("cannot combine zero runs")
    air_time = sum(r.air_time_samples for r in results)
    useful = sum(r.useful_bits for r in results)
    bers: List[float] = [b for r in results for b in r.packet_bers]
    return {
        "throughput": float(useful / air_time) if air_time else 0.0,
        "delivered": float(sum(r.packets_delivered for r in results)),
        "offered": float(sum(r.packets_offered for r in results)),
        "mean_ber": float(np.mean(bers)) if bers else 0.0,
        "slots": float(sum(r.slots_used for r in results)),
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: a sweep declared as data.

    Attributes
    ----------
    name:
        Registry / CLI name (e.g. ``"chain_sweep"``).
    description:
        One-line description shown in ``--help``.
    topology:
        Name of the topology generator in
        :data:`repro.network.generator.GENERATORS` that builds each
        trial's network.
    sweep_axis:
        Human-readable name of the swept parameter (table's first column).
    sweep_values:
        Values the axis takes at the default size.
    quick_sweep_values:
        Values used under ``--quick`` (defaults to ``sweep_values``).
    schemes:
        Scheme names every trial reports, in table-column order; the
        first scheme is the numerator of the rendered gain columns.
    trial_fn:
        Picklable top-level callable executing one ``(value, run)`` cell.
    params:
        Extra keyword arguments passed to every trial (and hashed into
        the engine's cache digest), e.g. the mesh size.
    consumes:
        Names of the config's time-domain traffic knobs
        (``arrival_rate`` / ``sim_duration`` / ``mac_policy``) this
        scenario's trials actually honour.  :func:`run_scenario` raises a
        :class:`ConfigurationError` when the config sets a knob outside
        this set — fixed-trial scenarios would otherwise silently ignore
        it.
    """

    name: str
    description: str
    topology: str
    sweep_axis: str
    sweep_values: Tuple[Any, ...]
    schemes: Tuple[str, ...]
    trial_fn: ScenarioTrialFn
    quick_sweep_values: Optional[Tuple[Any, ...]] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    consumes: Tuple[str, ...] = ()

    def values_for(self, quick: bool) -> Tuple[Any, ...]:
        """The sweep values to run at the requested size."""
        if quick and self.quick_sweep_values is not None:
            return self.quick_sweep_values
        return self.sweep_values


@dataclass
class ScenarioReport:
    """Aggregated scenario results, renderable as a deterministic table.

    Attributes
    ----------
    spec:
        The scenario that produced the results.
    sweep_values:
        The axis values actually run, in order.
    rows:
        Per-value mean metrics: ``rows[value][scheme][metric]`` averaged
        over the runs.
    runs:
        Number of independent runs behind each row.
    """

    spec: ScenarioSpec
    sweep_values: Tuple[Any, ...]
    rows: Dict[Any, Dict[str, Dict[str, float]]]
    runs: int

    def gain(self, value: Any, baseline: str) -> float:
        """Mean throughput of the lead scheme over ``baseline`` at a value."""
        return scenario_gain(self.rows, self.spec.schemes, value, baseline)

    def render(self) -> str:
        """Render the scenario summary table as deterministic plain text."""
        return render_scenario_table(
            name=self.spec.name,
            sweep_axis=self.spec.sweep_axis,
            schemes=self.spec.schemes,
            sweep_values=self.sweep_values,
            rows=self.rows,
            runs=self.runs,
        )

    def to_result(self, config: Optional[ExperimentConfig] = None) -> "ExperimentResult":
        """Flatten the report into a typed, serializable result object."""
        from repro.results.adapters import scenario_result

        return scenario_result(self, config if config is not None else ExperimentConfig())


def scenario_gain(
    rows: Mapping[Any, Mapping[str, Mapping[str, float]]],
    schemes: Sequence[str],
    value: Any,
    baseline: str,
) -> float:
    """Mean throughput of the lead scheme over ``baseline`` at one value."""
    lead = schemes[0]
    base = rows[value][baseline]["throughput"]
    if base == 0.0:
        return float("inf")
    return rows[value][lead]["throughput"] / base


def render_scenario_table(
    name: str,
    sweep_axis: str,
    schemes: Sequence[str],
    sweep_values: Sequence[Any],
    rows: Mapping[Any, Mapping[str, Mapping[str, float]]],
    runs: int,
) -> str:
    """Render a scenario's summary table from its aggregated row mapping.

    Shared by :meth:`ScenarioReport.render` and the structured-results
    renderer (:mod:`repro.results.render`), so the text view stays
    byte-identical whichever path produced the numbers.
    """
    lead = schemes[0]
    baselines = [s for s in schemes if s != lead]
    labels = [sweep_axis]
    labels += [f"{s} thpt" for s in schemes]
    labels += [f"{lead}/{b}" for b in baselines]
    labels += [f"{lead} dlvr", f"{lead} BER"]
    widths = [max(8, len(label)) for label in labels]
    lines = [f"=== scenario {name} ==="]
    lines.append(
        " | ".join(f"{label:>{w}}" for label, w in zip(labels, widths))
    )
    lines.append("-" * len(lines[1]))
    for value in sweep_values:
        row = rows[value]
        cells = [f"{value!s}"]
        cells += [f"{row[s]['throughput']:.4f}" for s in schemes]
        cells += [f"{scenario_gain(rows, schemes, value, b):.2f}" for b in baselines]
        delivery = (
            row[lead]["delivered"] / row[lead]["offered"]
            if row[lead]["offered"]
            else 0.0
        )
        cells += [f"{delivery:.3f}", f"{row[lead]['mean_ber']:.4f}"]
        lines.append(
            " | ".join(f"{cell:>{w}}" for cell, w in zip(cells, widths))
        )
    lines.append(f"runs per point: {runs}")
    return "\n".join(lines)


def run_scenario(
    spec: ScenarioSpec,
    config: Optional[ExperimentConfig] = None,
    engine: Optional[ExperimentEngine] = None,
    quick: bool = False,
) -> ScenarioReport:
    """Execute every cell of a scenario's sweep grid through the engine.

    Each ``(sweep value, run index)`` pair is one engine trial, so worker
    fan-out and disk caching apply to the whole grid at once; results are
    keyed and re-ordered so the report is identical however they ran.
    """
    cfg = config if config is not None else ExperimentConfig()
    unconsumed = sorted(set(cfg.sim_overrides()) - set(spec.consumes))
    if unconsumed:
        raise ConfigurationError(
            f"scenario {spec.name!r} ignores the traffic knob(s) "
            f"{', '.join(unconsumed)}; they apply only to time-domain "
            "scenarios such as offered_load_sweep / queueing_delay"
        )
    values = spec.values_for(quick)
    keys = [(value, run) for value in values for run in range(cfg.runs)]
    cells = default_engine(engine).map(
        f"scenario_{spec.name}", spec.trial_fn, cfg, keys,
        params=spec.params, batch_size=cfg.engine_batch_size,
    )

    rows: Dict[Any, Dict[str, Dict[str, float]]] = {}
    for value in values:
        value_cells = [
            cell for (cell_value, _), cell in zip(keys, cells) if cell_value == value
        ]
        row: Dict[str, Dict[str, float]] = {}
        for scheme in spec.schemes:
            metrics = sorted(value_cells[0][scheme])
            row[scheme] = {
                metric: float(np.mean([cell[scheme][metric] for cell in value_cells]))
                for metric in metrics
            }
        rows[value] = row
    return ScenarioReport(spec=spec, sweep_values=values, rows=rows, runs=cfg.runs)


#: Registry of every scenario, keyed by CLI name.  Populated by the
#: scenario modules at import time via :func:`register_scenario`.
SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add one scenario to the registry (idempotent per name)."""
    SCENARIOS[spec.name] = spec
    return spec


def available_scenarios() -> List[str]:
    """Names of every registered scenario, in registration order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one scenario by CLI name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        ) from None
