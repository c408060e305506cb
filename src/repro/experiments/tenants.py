"""The multi-tenant population experiment: any scheme over N tenants.

One cell = one scheme replayed over a Zipf-skewed, optionally churning
tenant population. Cells are independent — each rebuilds its system,
population, and registry deterministically from the frozen config — so a
multi-scheme run fans out through
:func:`~repro.experiments.runner.map_cells`, the figure grids' fan-out,
and the parallel tables and warnings are identical to sequential ones. (Partitioning the cache and provider economy themselves, with
explicitly different semantics, lives in :mod:`repro.distcache` and is
reached through the CLI's ``--cache-partitions`` or
:func:`repro.distcache.run_partitioned_cell`.)

The per-tenant outputs join two sources: the step records (queries, cache
hits, charges — available for every scheme) and the tenant registry
(wallet balances, per-tenant regret — available for the econ-* schemes,
whose engine runs the multi-tenant economy).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.economy.engine import EconomyConfig
from repro.economy.tenancy import GenerativeTenantRegistry
from repro.errors import ExperimentError
from repro.experiments.reporting import distribution_cells, format_table
from repro.experiments.runner import map_cells
from repro.policies.economic import EconomicSchemeConfig
from repro.policies.factory import SCHEME_NAMES
from repro.simulator.events import Event
from repro.simulator.metrics import MetricsSummary, TenantBreakdown
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.system import CloudSystem
from repro.workload.generator import (
    ArrivalEnvelope,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.workload.grammar import (
    ScenarioGrammar,
    ShockSpec,
    TenantTier,
    apply_tenant_tiers,
    compile_shock_events_for_span,
)
from repro.workload.population import (
    GenerativeProfileSource,
    PopulatedWorkload,
    PopulationSpec,
    PopulationStream,
    TenantPopulation,
)


@dataclass(frozen=True)
class TenantExperimentConfig:
    """One population cell: a scheme plus the workload/population shape.

    Frozen (hashable, picklable) so cells can ship to worker processes.
    """

    scheme: str = "econ-cheap"
    tenant_count: int = 100
    query_count: int = 400
    interarrival_s: float = 10.0
    seed: int = 0
    zipf_exponent: float = 1.1
    initial_credit: float = 50.0
    budget_sigma: float = 0.0
    churn_period: int = 0
    churn_fraction: float = 0.1
    warmup_queries: int = 0
    settlement_period_s: Optional[float] = None
    shocks: Tuple[ShockSpec, ...] = ()
    tenant_tiers: Tuple[TenantTier, ...] = ()
    strict_maintenance: bool = False
    grammar: Optional[ScenarioGrammar] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ExperimentError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{', '.join(SCHEME_NAMES)}"
            )
        if self.query_count <= 0:
            raise ExperimentError("query_count must be positive")
        if self.settlement_period_s is not None and self.settlement_period_s <= 0:
            raise ExperimentError("settlement_period_s must be positive")

    def population_spec(self) -> PopulationSpec:
        """The population half of the configuration."""
        return PopulationSpec(
            tenant_count=self.tenant_count,
            zipf_exponent=self.zipf_exponent,
            initial_credit=self.initial_credit,
            budget_sigma=self.budget_sigma,
            churn_period=self.churn_period,
            churn_fraction=self.churn_fraction,
            seed=self.seed,
        )

    def workload_spec(self) -> WorkloadSpec:
        """The workload half of the configuration."""
        return WorkloadSpec(
            query_count=self.query_count,
            interarrival_s=self.interarrival_s,
            seed=self.seed,
        )


@dataclass(frozen=True)
class TenantCellResult:
    """Everything one population cell produced."""

    config: TenantExperimentConfig
    summary: MetricsSummary
    tenants: Tuple[TenantBreakdown, ...]
    wallet_credit: Tuple[Tuple[str, float], ...]
    population_size: int
    churn_waves: int

    def wallet_by_tenant(self) -> Dict[str, float]:
        """Wallet balances as a dict (empty for schemes with no registry)."""
        return dict(self.wallet_credit)


def _compiled_queries(config: TenantExperimentConfig):
    """The grammar-composed query list of a config (``grammar`` set)."""
    compiled = config.grammar.compile(
        query_count=config.query_count,
        interarrival_s=config.interarrival_s,
        seed=config.seed,
    )
    return list(compiled.queries)


def build_population(config: TenantExperimentConfig) -> PopulatedWorkload:
    """Materialise the populated workload of a cell (deterministic).

    No run needs this: every cell, partitioned ones included, streams the
    same population through :func:`cell_arrivals`. It builds the eager
    reference the streamed cells are checked against (and the global
    cache's peak-bytes probe in ``benchmarks/bench_distcache.py``). It
    includes the SLA-tier rewrite when the config carries
    ``tenant_tiers``, and the grammar-composed query stream (weighted
    classes, flash crowds) when it carries a ``grammar``.
    """
    if config.grammar is not None:
        workload = _compiled_queries(config)
    else:
        workload = WorkloadGenerator(config.workload_spec()).generate()
    populated = TenantPopulation(config.population_spec()).populate(workload)
    return apply_tenant_tiers(populated, config.tenant_tiers,
                              seed=config.seed)


class CellArrivals(NamedTuple):
    """A cell's lazy arrival stream plus what the drivers need around it."""

    stream: PopulationStream
    envelope: ArrivalEnvelope
    source: GenerativeProfileSource
    shock_events: Tuple[Event, ...]


def cell_arrivals(config: TenantExperimentConfig) -> CellArrivals:
    """The populated arrival stream of one cell, nothing materialised.

    Queries come from :meth:`WorkloadGenerator.iter_queries`, or, for a
    grammar-composed scenario, from the compiled query list (which the
    grammar builds whole by construction; the envelope is read off it).
    Tenant profiles derive on demand from the returned source.
    """
    population_spec = config.population_spec()
    source = GenerativeProfileSource(spec=population_spec,
                                     tiers=config.tenant_tiers)
    if config.grammar is not None:
        queries = _compiled_queries(config)
        envelope = ArrivalEnvelope(query_count=len(queries),
                                   start_s=queries[0].arrival_time,
                                   last_s=queries[-1].arrival_time)
    else:
        generator = WorkloadGenerator(config.workload_spec())
        envelope = generator.arrival_envelope()
        queries = generator.iter_queries()
    stream = TenantPopulation(population_spec).stream(queries, source=source)
    shock_events = compile_shock_events_for_span(
        config.shocks, envelope.start_s, envelope.last_s)
    return CellArrivals(stream, envelope, source, shock_events)


def cell_scheme(config: TenantExperimentConfig, registry=None):
    """The cell's scheme; econ-* schemes run over ``registry``."""
    system = CloudSystem()
    if config.scheme == "bypass":
        return system.scheme(config.scheme)
    return system.scheme(
        config.scheme, economic_config=EconomicSchemeConfig(
            economy=EconomyConfig(
                strict_maintenance=config.strict_maintenance,
            ),
            tenants=registry,
        )
    )


def simulate_cell(config: TenantExperimentConfig, trace=None, metrics=None):
    """Run one cell; return ``(result, scheme, registry)``.

    The scheme and registry stay live so callers (the shock audit) can
    fold their accounts; :func:`run_tenant_cell` keeps the result only.
    """
    arrivals = cell_arrivals(config)
    registry = None
    if config.scheme != "bypass":
        registry = GenerativeTenantRegistry(arrivals.source)
    scheme = cell_scheme(config, registry)
    observers = []
    if trace is not None or metrics is not None:
        from repro.obs.metrics import attach_observability

        observers = attach_observability(scheme, trace=trace,
                                         metrics=metrics)
    simulation = CloudSimulation(
        scheme, SimulationConfig(
            warmup_queries=config.warmup_queries,
            settlement_period_s=config.settlement_period_s,
        )
    )
    result = simulation.run_streamed(
        arrivals.stream, arrivals.envelope,
        observers=observers,
        shock_events=arrivals.shock_events,
    )
    wallets: Tuple[Tuple[str, float], ...] = ()
    if registry is not None:
        wallets = tuple(registry.credit_by_tenant().items())
    cell = TenantCellResult(
        config=config,
        summary=result.summary,
        tenants=sorted_breakdowns(result.steps),
        wallet_credit=wallets,
        population_size=arrivals.stream.tenants_minted,
        churn_waves=arrivals.stream.churn_events,
    )
    return cell, scheme, registry


def run_tenant_cell(config: TenantExperimentConfig,
                    trace=None, metrics=None) -> TenantCellResult:
    """Run one scheme over one streamed population.

    Nothing population-sized is materialised: queries flow from the
    workload generator through a
    :class:`~repro.workload.population.PopulationStream` into the kernel's
    lookahead window (which also primes the batch planner), and tenant
    profiles derive on demand inside a
    :class:`~repro.economy.tenancy.GenerativeTenantRegistry`. Per-cell
    memory is bounded by the concurrently live (and charged) tenants plus
    the lookahead window — never by ``tenant_count``. The econ-* schemes
    price and negotiate per tenant through the registry; the bypass
    baseline has no economy, so only its step-level tenant metrics are
    populated (wallets stay empty).

    Args:
        config: the frozen cell configuration.
        trace: optional :class:`~repro.obs.trace.TraceRecorder`; attaching
            one is observation-only — the cell result stays byte-identical
            to the untraced run (the zero-perturbation contract).
        metrics: optional :class:`~repro.obs.metrics.MetricsTimeseries`
            sampled at every settlement barrier under the same contract.
    """
    return simulate_cell(config, trace=trace, metrics=metrics)[0]


def sorted_breakdowns(steps) -> Tuple[TenantBreakdown, ...]:
    """Per-tenant breakdowns, busiest tenant first (ties by id).

    The ``(-query_count, tenant_id)`` key is a *total* order (ids are
    unique), so any disjoint union of per-tenant breakdowns re-sorts to
    the same sequence — the property the partitioned merge
    (:mod:`repro.distcache.merge`) relies on.
    """
    from repro.simulator.metrics import breakdown_by_tenant

    breakdowns = breakdown_by_tenant(steps)
    return tuple(sorted(
        breakdowns.values(),
        key=lambda item: (-item.query_count, item.tenant_id),
    ))


def run_tenant_experiment(configs: Sequence[TenantExperimentConfig],
                          jobs: Optional[int] = None,
                          trace=None,
                          metrics=None) -> List[TenantCellResult]:
    """Run many population cells, optionally fanned over worker processes.

    Args:
        configs: the cells to run (typically one per scheme).
        jobs: worker processes (:func:`~repro.experiments.runner.map_cells`);
            ``None`` or 1 runs sequentially. Results come back in
            ``configs`` order either way, and each cell is deterministic,
            so the parallel path is byte-identical.
        trace: optional :class:`~repro.obs.trace.TraceRecorder` the whole
            experiment records into. Traced cells run sequentially so
            records land in one recorder — the cell *results* are
            identical either way.
        metrics: optional :class:`~repro.obs.metrics.MetricsTimeseries`
            handled like ``trace`` (observed cells run sequentially).
    """
    observed = trace is not None or metrics is not None
    cell = functools.partial(run_tenant_cell, trace=trace, metrics=metrics)
    return map_cells(cell, configs, 1 if observed else jobs)


# -- tables --------------------------------------------------------------------


def tenant_aggregate_table(result: TenantCellResult) -> str:
    """The per-tenant aggregate table of one cell (credit, hit rate, load)."""
    config = result.config
    hit_rates = [item.cache_hit_rate for item in result.tenants]
    loads = [float(item.query_count) for item in result.tenants]
    charges = [item.total_charge for item in result.tenants]
    rows: List[List[object]] = [
        ["tenants ever active", result.population_size, "", ""],
        ["tenants with traffic", len(result.tenants), "", ""],
        ["churn waves", result.churn_waves, "", ""],
        ["queries/tenant"] + distribution_cells(loads),
        ["cache hit rate"] + distribution_cells(hit_rates),
        ["charge/tenant"] + distribution_cells(charges),
    ]
    wallets = [credit for _, credit in result.wallet_credit]
    if wallets:
        rows.append(["wallet credit"] + distribution_cells(wallets))
    title = (f"Tenants - {config.scheme} x {config.tenant_count} tenants "
             f"({config.query_count} queries)")
    return format_table(["metric", "mean", "min", "max"], rows, title=title)


def top_tenant_table(result: TenantCellResult, limit: int = 10) -> str:
    """The busiest ``limit`` tenants of one cell, one row each."""
    wallets = result.wallet_by_tenant()
    headers = ["tenant", "queries", "hit_rate", "charge", "profit", "credit"]
    rows: List[List[object]] = []
    for item in result.tenants[:limit]:
        credit = wallets.get(item.tenant_id)
        rows.append([
            item.tenant_id,
            item.query_count,
            item.cache_hit_rate,
            item.total_charge,
            item.total_profit,
            credit if credit is not None else "-",
        ])
    return format_table(
        headers, rows,
        title=f"Top {min(limit, len(result.tenants))} tenants by traffic",
    )
