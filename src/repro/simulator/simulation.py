"""The simulation drivers, assembled on the event kernel.

:class:`CloudSimulation` keeps its original one-scheme API but is now a
thin assembly over :class:`~repro.simulator.kernel.SimulationKernel`:
query arrivals, maintenance settlements, scheduled failure checks and
workload phase changes are all events dispatched to registered handlers
(:mod:`repro.simulator.handlers`) instead of inline special cases.
Between consecutive events the tenant integrates the time-proportional
maintenance cost of everything the scheme keeps built, which is how the
inter-arrival time ends up mattering for the operating cost even though
per-query work is unchanged — exactly the effect Figures 4 and 5 study.

:class:`MultiSchemeSimulation` runs several schemes against the same
workload on one shared clock in a single kernel run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.policies.base import CachingScheme
from repro.simulator.events import (
    MaintenanceSettlementEvent,
    QueryArrivalEvent,
    StructureFailureCheckEvent,
    TenantArrivalEvent,
    TenantChurnEvent,
    WorkloadPhaseChangeEvent,
)
from repro.simulator.handlers import PeriodicRescheduler, SchemeTenant
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsCollector
from repro.simulator.results import SimulationResult
from repro.workload.query import Query


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level options.

    Attributes:
        warmup_queries: number of initial queries excluded from the metrics
            (they still update the scheme's state). The paper's measurements
            start from an operating cloud; a small warm-up avoids crediting
            or penalising schemes for the very first cold-cache queries.
        trailing_settlement: whether maintenance is also charged for one
            mean inter-arrival interval after the final query, keeping the
            measured duration equal to ``count * interarrival`` exactly
            (the trailing interval is the workload's empirical mean gap,
            ``span / (count - 1)``).
        settlement_period_s: when set, a periodic maintenance settlement
            event fires every this many seconds; settlement at event
            boundaries is exact either way (the rate only changes at
            arrivals), so the period only affects accounting granularity.
        failure_check_period_s: when set, a scheduled structure-failure
            check fires every this many seconds, releasing idle-failed
            structures *between* arrivals instead of only at the next
            query. ``None`` (the default) preserves the paper pipeline's
            per-query-only checks.
    """

    warmup_queries: int = 0
    trailing_settlement: bool = True
    settlement_period_s: Optional[float] = None
    failure_check_period_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.warmup_queries < 0:
            raise SimulationError("warmup_queries must be non-negative")
        if self.settlement_period_s is not None and self.settlement_period_s <= 0:
            raise SimulationError("settlement_period_s must be positive")
        if (self.failure_check_period_s is not None
                and self.failure_check_period_s <= 0):
            raise SimulationError("failure_check_period_s must be positive")


def trailing_interval_for(queries: Sequence[Query]) -> float:
    """The exact trailing-settlement interval for a workload.

    The run's measured duration should equal ``count * interarrival``:
    the span covers ``count - 1`` gaps, so the trailing charge is the
    empirical mean gap ``span / (count - 1)`` — exact for fixed arrivals
    and unbiased for irregular ones (the old heuristic reused the last
    *positive* gap, charging a stale interval when the final arrivals
    were simultaneous).
    """
    if len(queries) < 2:
        return 0.0
    span = queries[-1].arrival_time - queries[0].arrival_time
    return span / (len(queries) - 1)


def _check_extent(query_count: int, config: SimulationConfig) -> None:
    if query_count <= 0:
        raise SimulationError("the workload contains no queries")
    if config.warmup_queries >= query_count:
        raise SimulationError(
            f"warmup_queries={config.warmup_queries} leaves no "
            f"measured queries out of {query_count}"
        )


def _drive(schemes: Sequence[CachingScheme], config: SimulationConfig,
           start_s: float, last_arrival_s: float, trailing_s: float,
           feed, observers: Sequence = (),
           shock_events: Sequence = ()) -> Dict[str, SimulationResult]:
    """Shared kernel assembly: run ``schemes`` on one clock.

    ``feed(kernel)`` registers and schedules the arrivals (the whole
    materialised workload, or a streaming source); it runs after the
    scheme tenants and the periodic rescheduler are registered and
    before the observers, so every arrival handler precedes the
    read-only observers in dispatch order.
    """
    end_s = last_arrival_s + (trailing_s if config.trailing_settlement
                              else 0.0)
    kernel = SimulationKernel(start_time_s=start_s)
    tenants: List[SchemeTenant] = []
    for scheme in schemes:
        tenant = SchemeTenant(
            scheme,
            MetricsCollector(scheme.name),
            warmup_queries=config.warmup_queries,
            start_time_s=start_s,
        )
        tenant.register(kernel)
        tenants.append(tenant)

    rescheduler = PeriodicRescheduler(horizon_s=end_s)
    kernel.register(MaintenanceSettlementEvent, rescheduler)
    kernel.register(StructureFailureCheckEvent, rescheduler)

    feed(kernel)

    # Observers register last: registration order is dispatch order, so an
    # observer of a settlement event always sees fully settled state. They
    # must be read-only — the zero-perturbation contract of repro.obs
    # relies on observed runs being bitwise identical to unobserved ones.
    for event_type, handler in observers:
        kernel.register(event_type, handler)

    # Market-shock events (already-instantiated Event objects, e.g. from
    # repro.workload.grammar.compile_shock_events) are scheduled as-is;
    # the compiler clamps them to the arrival span, so none outlives the
    # run horizon.
    kernel.schedule_all(shock_events)
    # Periodic events are clamped to the run horizon: an initial occurrence
    # past end_s would extend the measured duration beyond the documented
    # count * interarrival invariant (the rescheduler caps follow-ups the
    # same way).
    if (config.settlement_period_s is not None
            and start_s + config.settlement_period_s <= end_s):
        kernel.schedule(MaintenanceSettlementEvent(
            time_s=start_s + config.settlement_period_s,
            period_s=config.settlement_period_s,
        ))
    if (config.failure_check_period_s is not None
            and start_s + config.failure_check_period_s <= end_s):
        kernel.schedule(StructureFailureCheckEvent(
            time_s=start_s + config.failure_check_period_s,
            period_s=config.failure_check_period_s,
        ))
    if config.trailing_settlement and trailing_s > 0:
        kernel.schedule(MaintenanceSettlementEvent(time_s=end_s, final=True))

    kernel.run()

    return {
        tenant.scheme.name: SimulationResult(
            summary=tenant.collector.summary(),
            steps=tenant.collector.steps,
        )
        for tenant in tenants
    }


def _run_tenants(schemes: Sequence[CachingScheme], queries: Sequence[Query],
                 config: SimulationConfig,
                 phase_changes: Sequence = (),
                 tenant_lifecycle: Sequence = (),
                 observers: Sequence = (),
                 shock_events: Sequence = ()) -> Dict[str, SimulationResult]:
    """Run ``schemes`` over one materialised workload and clock."""
    query_list = list(queries)
    _check_extent(len(query_list), config)
    # Economic schemes evaluate whole settlement epochs vectorized; the
    # bypass scheme ignores the priming (see CachingScheme.prime_workload).
    for scheme in schemes:
        scheme.prime_workload(
            query_list, settlement_period_s=config.settlement_period_s
        )

    def feed(kernel: SimulationKernel) -> None:
        kernel.schedule_all(
            QueryArrivalEvent(time_s=query.arrival_time, query=query)
            for query in query_list
        )
        for change in phase_changes:
            kernel.schedule(WorkloadPhaseChangeEvent(
                time_s=change.time_s,
                phase_index=change.phase_index,
                label=change.label,
            ))
        for marker in tenant_lifecycle:
            event_type = (TenantArrivalEvent if marker.kind == "arrival"
                          else TenantChurnEvent)
            kernel.schedule(event_type(
                time_s=marker.time_s, tenant_id=marker.tenant_id,
            ))

    return _drive(schemes, config, query_list[0].arrival_time,
                  query_list[-1].arrival_time,
                  trailing_interval_for(query_list), feed,
                  observers=observers, shock_events=shock_events)


def _run_tenants_streamed(schemes: Sequence[CachingScheme], stream,
                          envelope, config: SimulationConfig,
                          observers: Sequence = (),
                          shock_events: Sequence = ()
                          ) -> Dict[str, SimulationResult]:
    """The :func:`_run_tenants` assembly over a lazy arrival stream.

    ``stream`` yields populated queries and lifecycle markers in time
    order (a :class:`~repro.workload.population.PopulationStream`);
    ``envelope`` (:class:`~repro.workload.generator.ArrivalEnvelope`)
    supplies the run extent the eager path reads off the materialised
    list. All horizon arithmetic uses the envelope's floats — the same
    values the stream's queries are stamped with — so settlement instants,
    the trailing charge, and shock onsets are bitwise the eager ones, and
    every same-instant tie resolves identically (the stream preserves
    insertion order; cross-kind ties go by event priority, which never
    depended on scheduling order).

    The schemes are primed from the lookahead window: every query the
    source schedules is queued behind the unconsumed ones through
    :meth:`~repro.policies.base.CachingScheme.extend_workload`, so the
    planner scores the window in vectorized blocks while holding only
    O(window) of the workload.
    """
    from repro.simulator.streaming import StreamingArrivalSource

    _check_extent(envelope.query_count, config)

    def extend(queries: Sequence[Query]) -> None:
        for scheme in schemes:
            scheme.extend_workload(queries)

    source = StreamingArrivalSource(stream, on_queries=extend)

    def feed(kernel: SimulationKernel) -> None:
        source.register(kernel)
        # Refilling schedules future events only, so priming the window
        # before the observers register leaves their settled-state view
        # unchanged.
        source.prime(kernel)

    return _drive(schemes, config, envelope.start_s, envelope.last_s,
                  envelope.trailing_interval_s, feed,
                  observers=observers, shock_events=shock_events)


class CloudSimulation:
    """Replays a workload against a caching scheme and collects metrics."""

    def __init__(self, scheme: CachingScheme,
                 config: SimulationConfig = SimulationConfig()) -> None:
        self._scheme = scheme
        self._config = config

    @property
    def scheme(self) -> CachingScheme:
        """The scheme under simulation."""
        return self._scheme

    def run(self, queries: Sequence[Query],
            phase_changes: Sequence = (),
            tenant_lifecycle: Sequence = (),
            observers: Sequence = (),
            shock_events: Sequence = ()) -> SimulationResult:
        """Process all queries in arrival order and return the result.

        Args:
            queries: the workload, in arrival order.
            phase_changes: optional workload phase boundaries (see
                :mod:`repro.workload.scenarios`), scheduled as
                :class:`~repro.simulator.events.WorkloadPhaseChangeEvent`.
            tenant_lifecycle: optional tenant join/leave markers (see
                :mod:`repro.workload.population`), scheduled as
                :class:`~repro.simulator.events.TenantArrivalEvent` /
                :class:`~repro.simulator.events.TenantChurnEvent`.
            observers: optional ``(event type, handler)`` pairs registered
                on the kernel after all built-in handlers; read-only hooks
                used e.g. by :mod:`repro.obs` to sample state at
                settlement boundaries.
            shock_events: optional market-shock events (see
                :mod:`repro.workload.grammar`) injected into the run —
                invalidations, provider price shocks, tenant budget
                squeezes.
        """
        results = _run_tenants([self._scheme], queries, self._config,
                               phase_changes=phase_changes,
                               tenant_lifecycle=tenant_lifecycle,
                               observers=observers,
                               shock_events=shock_events)
        return results[self._scheme.name]

    def run_streamed(self, stream, envelope, observers: Sequence = (),
                     shock_events: Sequence = ()) -> SimulationResult:
        """Run over a lazy arrival stream instead of a materialised list.

        Args:
            stream: time-ordered iterable of populated queries and tenant
                lifecycle markers (see
                :meth:`repro.workload.population.TenantPopulation.stream`).
            envelope: the workload's
                :class:`~repro.workload.generator.ArrivalEnvelope` (count
                and first/last arrival), which replaces everything the
                eager path reads off the query list.
            observers: as for :meth:`run`.
            shock_events: as for :meth:`run` (compile them with
                :func:`repro.workload.grammar.compile_shock_events_for_span`
                so no queries are materialised).

        Returns:
            The same :class:`~repro.simulator.results.SimulationResult` an
            eager :meth:`run` over the materialised stream would return,
            bit for bit.
        """
        results = _run_tenants_streamed([self._scheme], stream, envelope,
                                        self._config, observers=observers,
                                        shock_events=shock_events)
        return results[self._scheme.name]


class MultiSchemeSimulation:
    """Runs several schemes over one workload on a single shared clock.

    Each scheme keeps its own cache and metrics; they only share the
    kernel and its event stream, so an N-scheme run dispatches each
    arrival once instead of re-running the simulation N times.
    """

    def __init__(self, schemes: Sequence[CachingScheme],
                 config: SimulationConfig = SimulationConfig()) -> None:
        scheme_list = list(schemes)
        if not scheme_list:
            raise SimulationError("at least one scheme is required")
        names = [scheme.name for scheme in scheme_list]
        if len(set(names)) != len(names):
            raise SimulationError(f"scheme names must be unique, got {names}")
        self._schemes = scheme_list
        self._config = config

    @property
    def schemes(self) -> Tuple[CachingScheme, ...]:
        """The schemes under simulation."""
        return tuple(self._schemes)

    def run(self, queries: Sequence[Query],
            phase_changes: Sequence = (),
            tenant_lifecycle: Sequence = (),
            observers: Sequence = (),
            shock_events: Sequence = ()) -> Dict[str, SimulationResult]:
        """Run every scheme over ``queries``; results keyed by scheme name."""
        return _run_tenants(self._schemes, queries, self._config,
                            phase_changes=phase_changes,
                            tenant_lifecycle=tenant_lifecycle,
                            observers=observers,
                            shock_events=shock_events)


def run_scheme(scheme: CachingScheme, queries: Iterable[Query],
               warmup_queries: int = 0) -> SimulationResult:
    """Convenience one-call simulation used by examples and benchmarks."""
    simulation = CloudSimulation(
        scheme, SimulationConfig(warmup_queries=warmup_queries)
    )
    return simulation.run(list(queries))
