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

Every run goes through one kernel assembly, :func:`drive`, fed by one
:class:`~repro.simulator.streaming.StreamingArrivalSource`: a lazy
population stream (:meth:`CloudSimulation.run_streamed`) and a
materialised query list (:meth:`CloudSimulation.run`, wrapped by
:func:`_list_arrivals`) arrive the same way, and the planner is primed
from the source's lookahead window either way. The partitioned cache
(:mod:`repro.distcache`) runs its cells on the same assembly with a
router in place of the scheme tenants.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.policies.base import CachingScheme
from repro.simulator.events import (
    MaintenanceSettlementEvent,
    StructureFailureCheckEvent,
    WorkloadPhaseChangeEvent,
)
from repro.simulator.handlers import PeriodicRescheduler, SchemeTenant
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsCollector
from repro.simulator.results import SimulationResult
from repro.workload.generator import ArrivalEnvelope
from repro.workload.population import TenantLifecycleMarker
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


def _check_extent(query_count: int, config: SimulationConfig) -> None:
    if query_count <= 0:
        raise SimulationError("the workload contains no queries")
    if config.warmup_queries >= query_count:
        raise SimulationError(
            f"warmup_queries={config.warmup_queries} leaves no "
            f"measured queries out of {query_count}"
        )


def _item_time(item) -> float:
    return (item.time_s if isinstance(item, TenantLifecycleMarker)
            else item.arrival_time)


def _list_arrivals(queries: Sequence[Query],
                   tenant_lifecycle: Sequence = ()
                   ) -> Tuple[Iterable, ArrivalEnvelope]:
    """A materialised workload as a time-ordered stream plus its envelope.

    Lifecycle markers merge ahead of same-instant queries, the order a
    :class:`~repro.workload.population.PopulationStream` yields them in,
    and each list keeps its own order. The envelope is read off the
    list's first and last query, so the trailing interval is the
    empirical mean gap ``span / (count - 1)``.

    Raises:
        SimulationError: for an empty workload.
    """
    queries = list(queries)
    if not queries:
        raise SimulationError("the workload contains no queries")
    envelope = ArrivalEnvelope(query_count=len(queries),
                               start_s=queries[0].arrival_time,
                               last_s=queries[-1].arrival_time)
    stream: Iterable = queries
    if tenant_lifecycle:
        stream = heapq.merge(tenant_lifecycle, queries, key=_item_time)
    return stream, envelope


def drive(participants: Sequence, config: SimulationConfig, stream,
          envelope: ArrivalEnvelope,
          on_queries: Optional[Callable[[Sequence[Query]], None]] = None,
          phase_changes: Sequence = (), observers: Sequence = (),
          shock_events: Sequence = ()) -> None:
    """The one kernel assembly every run goes through.

    ``participants`` register their handlers first, in order (one
    :class:`~repro.simulator.handlers.SchemeTenant` per scheme, or a
    partitioned cell's router). Then come the periodic rescheduler and a
    :class:`~repro.simulator.streaming.StreamingArrivalSource` over
    ``stream``, a time-ordered iterable of queries and tenant lifecycle
    markers. The source keeps a lookahead window of it scheduled and hands
    every query it schedules to ``on_queries`` before the query can
    dispatch; the drivers pass the planner's append-only priming hook
    there. Observers register last.

    ``envelope`` (:class:`~repro.workload.generator.ArrivalEnvelope`)
    gives the run extent: the clock starts at its first arrival, and the
    trailing settlement lands one mean inter-arrival interval after its
    last. All horizon arithmetic uses the envelope's floats, the same
    values the queries are stamped with, so settlement instants and shock
    onsets fall exactly where the queries put them. Same-instant ties
    between kinds go by event priority, and the stream keeps its own
    order within a kind.
    """
    # Looked up at call time, so a test can substitute the source.
    from repro.simulator.streaming import StreamingArrivalSource

    _check_extent(envelope.query_count, config)
    start_s = envelope.start_s
    trailing_s = envelope.trailing_interval_s
    end_s = envelope.last_s + (trailing_s if config.trailing_settlement
                               else 0.0)
    kernel = SimulationKernel(start_time_s=start_s)
    for participant in participants:
        participant.register(kernel)

    rescheduler = PeriodicRescheduler(horizon_s=end_s)
    kernel.register(MaintenanceSettlementEvent, rescheduler)
    kernel.register(StructureFailureCheckEvent, rescheduler)

    # The first refill schedules future events only, so priming the window
    # before the observers register leaves their settled-state view
    # unchanged.
    source = StreamingArrivalSource(stream, on_queries=on_queries)
    source.register(kernel)
    source.prime_window(kernel)
    # Phase boundaries are few, so they are scheduled up front.
    kernel.schedule_all(
        WorkloadPhaseChangeEvent(time_s=change.time_s,
                                 phase_index=change.phase_index,
                                 label=change.label)
        for change in phase_changes
    )

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


def _run_schemes(schemes: Sequence[CachingScheme], stream,
                 envelope: ArrivalEnvelope, config: SimulationConfig,
                 phase_changes: Sequence = (), observers: Sequence = (),
                 shock_events: Sequence = ()) -> Dict[str, SimulationResult]:
    """Run ``schemes`` on one clock over one arrival stream.

    Every scheme is primed from the lookahead window: each query the
    source schedules is queued behind the unconsumed ones through
    :meth:`~repro.policies.base.CachingScheme.prime_workload`, so the
    planner scores the window in vectorized blocks while holding only
    O(window) of the workload.
    """
    tenants = [
        SchemeTenant(scheme, MetricsCollector(scheme.name),
                     warmup_queries=config.warmup_queries,
                     start_time_s=envelope.start_s)
        for scheme in schemes
    ]

    def prime_schemes(queries: Sequence[Query]) -> None:
        for scheme in schemes:
            scheme.prime_workload(queries)

    drive(tenants, config, stream, envelope, on_queries=prime_schemes,
          phase_changes=phase_changes, observers=observers,
          shock_events=shock_events)
    return {
        tenant.scheme.name: SimulationResult(
            summary=tenant.collector.summary(),
            steps=tenant.collector.steps,
        )
        for tenant in tenants
    }


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

        The list (merged with ``tenant_lifecycle``) is fed to the kernel as
        a time-ordered stream, exactly like :meth:`run_streamed`'s.

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
        stream, envelope = _list_arrivals(queries, tenant_lifecycle)
        results = _run_schemes([self._scheme], stream, envelope,
                               self._config, phase_changes=phase_changes,
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
            The same :class:`~repro.simulator.results.SimulationResult`
            :meth:`run` returns over the materialised stream, bit for bit.
        """
        results = _run_schemes([self._scheme], stream, envelope,
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
        stream, envelope = _list_arrivals(queries, tenant_lifecycle)
        return _run_schemes(self._schemes, stream, envelope, self._config,
                            phase_changes=phase_changes,
                            observers=observers,
                            shock_events=shock_events)


def run_scheme(scheme: CachingScheme, queries: Iterable[Query],
               warmup_queries: int = 0) -> SimulationResult:
    """Convenience one-call simulation used by examples and benchmarks."""
    simulation = CloudSimulation(
        scheme, SimulationConfig(warmup_queries=warmup_queries)
    )
    return simulation.run(list(queries))
