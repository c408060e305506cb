"""The partitioned-cell runner: one kernel, a router, settlement barriers.

A partitioned cell runs on the kernel assembly every run uses
(:func:`repro.simulator.simulation.drive`), fed by the cell's streamed
arrivals (:func:`repro.experiments.tenants.cell_arrivals`)::

    partitions 0 .. N-1: each its OWN PartitionedCacheManager, provider
        sub-account and generative registry over the one profile source
    each lookahead refill: every partition primes its routed share
    query: routed (template affinity) to one partition, which settles
        its maintenance and serves it
    tenant lifecycle, market shock: every partition, in partition order
    settlement event = barrier:
        every partition settles, runs strict maintenance and books the
        losses (run_partition_epoch)
        [adaptive placement] apply the PlacementPolicy's ownership
        handoffs (override table + residency + in-flight regret)
        route foreign regret to the (possibly new) owners
        publish the directory as a fold-verified delta
        (prev + delta == full) with a periodic full-snapshot anchor
        verify sub-account ledger integrity + payment conservation
    final barrier, after the last event: wallet integrity audit, merge
        into a TenantCellResult

Nothing is materialised up front or serialised between barriers, and
steps arrive in dispatch order. More cores go to *independent cells*:
:func:`run_partitioned_experiment` fans cells out through
:func:`repro.experiments.runner.map_cells`, which changes wall-clock,
never results.

Each query is planned, priced, and negotiated by exactly **one**
partition: total per-query compute stays ~constant as partitions are
added.
The price is weaker semantics (epoch-consistent directory, remote-access
surcharges, owned-only investment) — quantified for every run by the
divergence report against the global-cache baseline and documented in
``docs/distcache.md``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distcache.directory import (
    CrossShardDirectory,
    DirectoryDelta,
    verify_delta_fold,
)
from repro.distcache.engine import PartitionedEconomyEngine, RemoteAccessModel
from repro.distcache.manager import PartitionedCacheManager
from repro.distcache.merge import (
    PartitionCheckpoint,
    merge_partition_results,
    verify_payment_conservation,
    verify_subaccount_integrity,
    verify_wallet_integrity,
)
from repro.distcache.partition import QueryRouter, StructurePartitioner
from repro.distcache.placement import (
    HandoffRecord,
    PlacementPolicy,
)
from repro.economy.account import CloudAccount
from repro.economy.engine import EconomyConfig
from repro.economy.tenancy import GenerativeTenantRegistry
from repro.errors import DistCacheError
from repro.experiments.runner import map_cells
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    cell_arrivals,
    run_tenant_cell,
)
from repro.policies.base import CachingScheme, SchemeStep
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.events import (
    Event,
    MaintenanceSettlementEvent,
    ProviderPriceShockEvent,
    QueryArrivalEvent,
    StructureInvalidationEvent,
    TenantArrivalEvent,
    TenantBudgetSqueezeEvent,
    TenantChurnEvent,
)
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsSummary
from repro.simulator.simulation import SimulationConfig, drive
from repro.system import CloudSystem
from repro.workload.population import GenerativeProfileSource
from repro.workload.query import Query


class PartitionImbalanceWarning(UserWarning):
    """More cache partitions than busy templates: some serve no queries."""


#: Placement modes: ``hash`` pins every structure to its hash owner
#: (byte-identical to the pre-placement behaviour), ``adaptive`` applies
#: demand-driven ownership handoffs at settlement barriers.
PLACEMENT_MODES = ("hash", "adaptive")

#: Publish a full-snapshot anchor every this many barriers; all other
#: barriers publish (and fold-verify) only the delta.
DEFAULT_ANCHOR_PERIOD = 8


@dataclass(frozen=True)
class DirectoryPublication:
    """What one barrier's directory publication cost, full versus delta."""

    epoch: int
    entries: int
    adds: int
    removes: int
    moves: int
    delta_bytes: int
    full_bytes: int
    anchored: bool

    @property
    def published_bytes(self) -> int:
        """Modeled bytes actually shipped: the full snapshot at anchors,
        the delta everywhere else."""
        return self.full_bytes if self.anchored else self.delta_bytes


@dataclass(frozen=True)
class PartitionRunStats:
    """End-of-run accounting of one partition, for the report tables."""

    partition_index: int
    queries_served: int
    local_structures: int
    peak_cache_bytes: int
    subaccount_credit: float
    query_payments: float
    remote_hits: int
    remote_structure_accesses: int
    remote_bytes: float
    remote_dollars: float


@dataclass(frozen=True)
class DistCacheCellReport:
    """A merged partitioned cell plus the audit trail of how it ran."""

    cell: TenantCellResult
    partition_count: int
    partitions: Tuple[PartitionRunStats, ...]
    checkpoints: Tuple[PartitionCheckpoint, ...]
    directory_size: int
    remote: RemoteAccessModel
    baseline: Optional[MetricsSummary] = None
    placement: str = "hash"
    handoff_threshold: float = 0.0
    handoffs: Tuple[HandoffRecord, ...] = ()
    publications: Tuple[DirectoryPublication, ...] = ()

    @property
    def barriers_verified(self) -> int:
        """Settlement barriers at which the audits ran (and passed)."""
        return len(self.checkpoints)

    @property
    def remote_hit_count(self) -> int:
        """Chosen plans across all partitions that touched remote state."""
        return sum(stats.remote_hits for stats in self.partitions)

    @property
    def remote_dollars_paid(self) -> float:
        """Total modeled interconnect spend across all partitions."""
        return sum(stats.remote_dollars for stats in self.partitions)

    @property
    def handoff_count(self) -> int:
        """Ownership handoffs applied over the whole run."""
        return len(self.handoffs)

    @property
    def directory_bytes_published(self) -> int:
        """Modeled bytes the barriers actually shipped (deltas + anchors)."""
        return sum(pub.published_bytes for pub in self.publications)

    @property
    def directory_bytes_full(self) -> int:
        """What full republication at every barrier would have shipped."""
        return sum(pub.full_bytes for pub in self.publications)


class _Partition:
    """One partition's scheme plus what its replay leaves for the merge.

    ``maintenance`` holds one ``(dollars, elapsed)`` record per settled
    interval and ``eviction_losses`` the dollar loss of each kernel-driven
    eviction (invalidation shocks, strict-maintenance shutdowns), both in
    event order, so the merge can fold them exactly like
    :class:`~repro.simulator.metrics.MetricsCollector` does in the
    unpartitioned run.
    """

    __slots__ = ("scheme", "maintenance", "eviction_losses",
                 "last_settled_s", "queries_served")

    def __init__(self, scheme: CachingScheme, start_s: float) -> None:
        self.scheme = scheme
        self.maintenance: List[Tuple[float, float]] = []
        self.eviction_losses: List[float] = []
        self.last_settled_s = start_s
        self.queries_served = 0

    def settle(self, now: float) -> None:
        """Charge maintenance accrued since the last settlement."""
        elapsed = now - self.last_settled_s
        self.last_settled_s = max(self.last_settled_s, now)
        if elapsed <= 0:
            return
        self.maintenance.append(
            (self.scheme.maintenance_rate() * elapsed, elapsed))

    def book(self, records) -> None:
        """Book the losses of kernel-driven evictions."""
        loss_of = self.scheme.eviction_loss
        self.eviction_losses.extend(loss_of(record) for record in records)


def run_partition_epoch(partition: _Partition, barrier_s: float) -> None:
    """Close one partition's epoch at a settlement barrier.

    Settles the partition's maintenance up to the barrier and runs its
    strict-maintenance shutdown there, booking the losses — exactly what
    :meth:`~repro.simulator.handlers.SchemeTenant.on_settlement` does for
    an unpartitioned scheme. It runs once per partition per barrier
    (``perfbench`` counts the calls as ``distcache.epochs``).
    """
    partition.settle(barrier_s)
    partition.book(partition.scheme.enforce_maintenance(barrier_s))


class _PartitionedCell:
    """A partitioned cell's kernel participant: the router and the barrier.

    Queries go to the partition :class:`QueryRouter` picks; tenant
    lifecycle and market-shock events go to every partition, in partition
    order (each partition holds a full registry view, and a shock hits
    the whole market: an invalidation destroys matches on every
    partition, a repricing reprices every sub-economy). Settlement
    events are the barriers. The barrier at the end instant is left to
    :meth:`close`, which runs after the kernel has drained, so the final
    barrier closes the run after its last same-instant event whether or
    not the kernel scheduled a final settlement.
    """

    def __init__(self, runner: "DistCacheRunner",
                 schemes: Sequence[CachingScheme],
                 policy: Optional[PlacementPolicy],
                 start_s: float, end_s: float) -> None:
        self._runner = runner
        self.partitions = [_Partition(scheme, start_s) for scheme in schemes]
        self.schemes = tuple(schemes)
        self.registries = [scheme.tenant_registry for scheme in schemes]
        self._policy = policy
        self._end_s = end_s
        self._epoch_start_s = start_s
        self.steps: List[SchemeStep] = []
        self.checkpoints: List[PartitionCheckpoint] = []
        self.handoffs: List[HandoffRecord] = []
        self.publications: List[DirectoryPublication] = []
        self.directory = CrossShardDirectory.empty()

    def register(self, kernel: SimulationKernel) -> None:
        """Register the router and barrier handlers on ``kernel``."""
        kernel.register(QueryArrivalEvent, self.on_query)
        kernel.register(MaintenanceSettlementEvent, self.on_settlement)
        kernel.register(TenantArrivalEvent, self.on_tenant_arrival)
        kernel.register(TenantChurnEvent, self.on_tenant_churn)
        for shock_type in (StructureInvalidationEvent,
                           ProviderPriceShockEvent, TenantBudgetSqueezeEvent):
            kernel.register(shock_type, self.on_shock)

    def prime_partitions(self, queries: Sequence[Query]) -> None:
        """Prime each partition with its routed share of a refill."""
        routed = self._runner._router.split(queries)
        for partition, share in zip(self.partitions, routed):
            if share:
                partition.scheme.prime_workload(share)

    # -- handlers --------------------------------------------------------------

    def on_query(self, event: Event, kernel: SimulationKernel) -> None:
        """Settle the owning partition up to the arrival, then serve it."""
        query = event.query
        partition = self.partitions[self._runner._router.partition_of(query)]
        partition.settle(event.time_s)
        self.steps.append(partition.scheme.process(query))
        partition.queries_served += 1

    def on_tenant_arrival(self, event: Event,
                          kernel: SimulationKernel) -> None:
        """Activate the arriving tenant on every partition."""
        for registry in self.registries:
            registry.activate(event.tenant_id, now=event.time_s)

    def on_tenant_churn(self, event: Event, kernel: SimulationKernel) -> None:
        """Deactivate the churning tenant on every partition."""
        for registry in self.registries:
            registry.deactivate(event.tenant_id, now=event.time_s)

    def on_shock(self, event: Event, kernel: SimulationKernel) -> None:
        """Settle every partition, then apply the market shock to it.

        Maintenance settles at pre-shock rates first. An invalidation only
        destroys the partition's own structures; the loss reaches the
        directory at the next barrier.
        """
        for partition in self.partitions:
            partition.settle(event.time_s)
            scheme = partition.scheme
            if isinstance(event, StructureInvalidationEvent):
                partition.book(scheme.apply_invalidation(event.predicate,
                                                         event.time_s))
            elif isinstance(event, ProviderPriceShockEvent):
                scheme.apply_price_shock(event.factor, event.time_s)
            else:
                scheme.apply_budget_squeeze(event.factor, event.time_s)

    def on_settlement(self, event: Event, kernel: SimulationKernel) -> None:
        """A settlement before the end instant is an interior barrier."""
        if event.time_s < self._end_s:
            self._barrier(event.time_s, final=False)

    def close(self) -> None:
        """Run the final barrier at the end instant."""
        self._barrier(self._end_s, final=True)

    # -- the barrier -----------------------------------------------------------

    def _barrier(self, barrier_s: float, final: bool) -> None:
        """Close every partition's epoch, then do the cross-partition work."""
        for partition in self.partitions:
            run_partition_epoch(partition, barrier_s)
        runner = self._runner
        schemes = self.schemes
        epoch = len(self.checkpoints) + 1
        applied: List[HandoffRecord] = []
        if self._policy is not None:
            applied = runner._apply_handoffs(schemes, self._policy,
                                             epoch=epoch, now=barrier_s)
            self.handoffs.extend(applied)
        runner._forward_regret(schemes)
        self.directory, publication = runner._publish_directory(
            schemes, epoch, previous=self.directory)
        self.publications.append(publication)
        self.checkpoints.append(runner._checkpoint(
            schemes, barrier_s, epoch, self.directory,
            handoffs_applied=len(applied)))
        trace = runner._trace
        if trace is not None:
            trace.span(
                "settlement_barrier", start_s=self._epoch_start_s,
                end_s=barrier_s, epoch=epoch,
                directory_entries=len(self.directory),
                directory_delta_bytes=publication.delta_bytes,
                handoffs_applied=len(applied), final=final)
            for record in applied:
                trace.event(
                    "handoff", time_s=barrier_s, key=record.key,
                    from_partition=record.from_partition,
                    to_partition=record.to_partition)
        if runner._metrics is not None:
            runner._sample_barrier(schemes, barrier_s, epoch, final,
                                   self.directory, publication, len(applied))
        self._epoch_start_s = barrier_s


class DistCacheRunner:
    """Runs tenant cells in partitioned-cache mode.

    Args:
        partition_count: cache partitions per cell.
        remote: the remote-access surcharge model in force.
        compare_baseline: also run the global-cache twin for the
            divergence report (skipped with one partition).
        placement: ``"hash"`` (static hash ownership, byte-identical to
            the pre-placement runner) or ``"adaptive"`` (demand-driven
            ownership handoffs at settlement barriers).
        handoff_threshold: hysteresis margin in dollars per epoch a
            challenger must exceed the incumbent by (adaptive mode).
    """

    def __init__(self, partition_count: int,
                 remote: RemoteAccessModel = RemoteAccessModel(),
                 compare_baseline: bool = True,
                 placement: str = "hash",
                 handoff_threshold: float = 0.0,
                 trace=None, metrics=None) -> None:
        if partition_count < 1:
            raise DistCacheError(
                f"partition_count must be >= 1, got {partition_count}")
        if placement not in PLACEMENT_MODES:
            raise DistCacheError(
                f"placement must be one of {', '.join(PLACEMENT_MODES)}; "
                f"got {placement!r}")
        if not handoff_threshold >= 0:  # `not >=` also rejects NaN
            raise DistCacheError(
                f"handoff_threshold must be >= 0, got {handoff_threshold}")
        self._base_partitioner = StructurePartitioner(partition_count)
        self._partitioner = self._base_partitioner
        self._router = QueryRouter(partition_count)
        self._remote = remote
        self._compare_baseline = compare_baseline
        self._placement = placement
        self._handoff_threshold = handoff_threshold
        # Observability sinks (duck-typed TraceRecorder); None = disabled.
        # Per-partition recorders live on the engines and are absorbed
        # into these collectors when a cell completes. The barrier
        # handler doubles as the metrics sampler: per-partition samples
        # are taken off the live engines at every barrier, exactly where
        # an unpartitioned run's settlement observer would fire.
        self._trace = trace
        self._metrics = metrics

    @property
    def partition_count(self) -> int:
        """Cache partitions per cell."""
        return self._partitioner.partition_count

    @property
    def placement(self) -> str:
        """The placement mode in force (``hash`` or ``adaptive``)."""
        return self._placement

    # -- assembly --------------------------------------------------------------

    def _build_schemes(self, config: TenantExperimentConfig,
                       source: GenerativeProfileSource
                       ) -> List[CachingScheme]:
        """One scheme (cache + sub-account + registry view) per partition.

        Every partition's generative registry derives profiles from the
        cell's one ``source``, so each sees the whole population without
        holding it.
        """
        if config.scheme == "bypass":
            raise DistCacheError(
                "partitioned mode requires an economy; the bypass baseline "
                "has none (run it with --cache-partitions 1)"
            )
        system = CloudSystem()
        partition_count = self.partition_count
        schemes: List[CachingScheme] = []
        for index in range(partition_count):
            registry = GenerativeTenantRegistry(source)

            def factory(enumerator, structure_costs, cache_config,
                        economy_config, tenants, _index=index):
                cache = PartitionedCacheManager(
                    cache_config,
                    partitioner=self._partitioner,
                    partition_index=_index,
                )
                economy = replace(
                    economy_config,
                    initial_credit=(economy_config.initial_credit
                                    / partition_count),
                )
                return PartitionedEconomyEngine(
                    enumerator=enumerator,
                    structure_costs=structure_costs,
                    cache=cache,
                    config=economy,
                    tenants=tenants,
                    remote=self._remote,
                    record_placement_bids=self._placement == "adaptive",
                )

            schemes.append(system.scheme(
                config.scheme,
                economic_config=EconomicSchemeConfig(
                    economy=EconomyConfig(
                        strict_maintenance=config.strict_maintenance,
                    ),
                    tenants=registry, engine_factory=factory),
            ))
        return schemes

    # -- execution -------------------------------------------------------------

    def run_cell(self, config: TenantExperimentConfig) -> DistCacheCellReport:
        """Run one cell partitioned; audit every barrier; merge exactly."""
        report = self._run_partitions(config)
        if self._compare_baseline and self.partition_count > 1:
            # The global-cache twin runs once the partitions' state is
            # released, so the two runs' peaks do not stack.
            report = replace(report, baseline=run_tenant_cell(config).summary)
        return report

    def _run_partitions(self, config: TenantExperimentConfig
                        ) -> DistCacheCellReport:
        if config.warmup_queries:
            raise DistCacheError(
                "partitioned mode does not support warmup_queries")
        # Ownership overrides are per-cell state: every cell starts from
        # pure hash placement, whatever the previous cell handed off.
        self._partitioner = self._base_partitioner
        policy: Optional[PlacementPolicy] = None
        if self._placement == "adaptive":
            policy = PlacementPolicy(
                self.partition_count,
                handoff_threshold=self._handoff_threshold)
        arrivals = cell_arrivals(config)
        schemes = self._build_schemes(config, arrivals.source)
        if self._trace is not None or self._metrics is not None:
            # Per-partition recorders are absorbed after the last barrier.
            from repro.obs.metrics import MetricsTimeseries, combined_recorder
            from repro.obs.trace import TraceRecorder

            for index, scheme in enumerate(schemes):
                source = f"partition{index}"
                self._engine_of(scheme).attach_trace(combined_recorder(
                    TraceRecorder(source=source)
                    if self._trace is not None else None,
                    MetricsTimeseries(source=source)
                    if self._metrics is not None else None,
                ))

        envelope = arrivals.envelope
        start_s = envelope.start_s
        end_s = envelope.last_s + envelope.trailing_interval_s
        cell = _PartitionedCell(self, schemes, policy, start_s, end_s)
        drive([cell], SimulationConfig(
                  settlement_period_s=config.settlement_period_s),
              arrivals.stream, envelope, on_queries=cell.prime_partitions,
              shock_events=arrivals.shock_events)
        cell.close()

        partitions = cell.partitions
        if min(partition.queries_served for partition in partitions) == 0:
            warnings.warn(
                f"cache partition count {self.partition_count} exceeds the "
                f"workload's busy template count; some cache partitions "
                f"serve no queries",
                PartitionImbalanceWarning,
                stacklevel=3,
            )
        verify_wallet_integrity(cell.registries)
        merged = merge_partition_results(
            config=config,
            steps=cell.steps,
            maintenance_by_partition=[partition.maintenance
                                      for partition in partitions],
            registries=cell.registries,
            duration_s=end_s - start_s,
            population_size=arrivals.stream.tenants_minted,
            churn_waves=arrivals.stream.churn_events,
            kernel_losses_by_partition=[partition.eviction_losses
                                        for partition in partitions],
        )
        if self._trace is not None or self._metrics is not None:
            from repro.obs.metrics import metrics_part, trace_part

            for index, partition in enumerate(partitions):
                engine = self._engine_of(partition.scheme)
                if self._trace is not None:
                    self._trace.event(
                        "partition_summary", time_s=end_s,
                        partition=index,
                        queries_served=partition.queries_served,
                        remote_hits=engine.remote_hits,
                        remote_surcharge_dollars=engine.remote_dollars,
                        peak_cache_bytes=(
                            engine.partitioned_cache.peak_disk_used_bytes))
                    part = trace_part(engine.trace)
                    if part is not None:
                        self._trace.absorb(part)
                if self._metrics is not None:
                    part = metrics_part(engine.trace)
                    if part is not None:
                        self._metrics.absorb(part)
        return DistCacheCellReport(
            cell=merged,
            partition_count=self.partition_count,
            partitions=tuple(self._partition_stats(partitions)),
            checkpoints=tuple(cell.checkpoints),
            directory_size=len(cell.directory),
            remote=self._remote,
            placement=self._placement,
            handoff_threshold=self._handoff_threshold,
            handoffs=tuple(cell.handoffs),
            publications=tuple(cell.publications),
        )

    # -- barrier work ----------------------------------------------------------

    def _apply_handoffs(self, schemes: Sequence[CachingScheme],
                        policy: PlacementPolicy, epoch: int,
                        now: float) -> List[HandoffRecord]:
        """Adaptive placement's barrier step: decide and apply handoffs.

        Drains every engine's per-structure benefit bids into the policy,
        asks it for this epoch's handoff set (only structures currently
        resident on their owner are eligible — a handoff always has
        residency state to move), then applies each handoff atomically
        from the run's perspective:

        1. the ownership-override table is extended and installed on
           every partition (one shared :class:`StructurePartitioner`, so
           directory checks, admission guards, and regret routing all
           flip together);
        2. the structure's :class:`~repro.cache.storage.CacheEntry` —
           billing watermark, usage recency, amortisation state — moves
           to the new owner's cache without an eviction record;
        3. the structure's in-flight regret moves to the new owner's
           tracker.

        No account is touched, so the bitwise sub-account reconciliation
        of the same barrier is unaffected; subsequent epochs bill the
        structure's maintenance and amortisation to the new owner's
        traffic.
        """
        engines = [self._engine_of(scheme) for scheme in schemes]
        for partition, engine in enumerate(engines):
            for key, benefit in engine.drain_placement_bids():
                policy.record(key, partition, benefit)

        caches = [engine.partitioned_cache for engine in engines]
        owners: Dict[str, int] = {}
        for key in policy.pending_keys():
            owner = self._partitioner.partition_of(key)
            if caches[owner].contains(key):
                owners[key] = owner
        decisions = policy.propose(owners)
        if not decisions:
            return []

        entries = [caches[decision.from_partition].extract_entry(decision.key)
                   for decision in decisions]
        self._partitioner = self._partitioner.with_overrides(
            {decision.key: decision.to_partition for decision in decisions})
        for cache in caches:
            cache.set_partitioner(self._partitioner)

        records: List[HandoffRecord] = []
        for decision, entry in zip(decisions, entries):
            caches[decision.to_partition].install_entry(entry, now=now)
            engines[decision.from_partition].transfer_regret_to(
                engines[decision.to_partition], entry.structure)
            records.append(HandoffRecord(
                epoch=epoch,
                key=decision.key,
                from_partition=decision.from_partition,
                to_partition=decision.to_partition,
                margin=decision.margin,
            ))
        return records

    def _forward_regret(self, schemes: Sequence[CachingScheme]) -> None:
        """Route regret earned on foreign-owned structures to their owners.

        Part of the barrier exchange: demand observed by a borrowing
        partition reaches the owner's investment rule one epoch late.
        Partitions are drained and credited in index order, so the
        exchange is deterministic.
        """
        engines = [self._engine_of(scheme) for scheme in schemes]
        forwarded: List[List[Tuple[object, float]]] = [
            [] for _ in engines
        ]
        for engine in engines:
            for structure, amount in engine.drain_foreign_regret():
                owner = self._partitioner.partition_of(structure.key)
                forwarded[owner].append((structure, amount))
        for engine, items in zip(engines, forwarded):
            if items:
                engine.absorb_forwarded_regret(items)

    def _publish_directory(self, schemes: Sequence[CachingScheme],
                           version: int,
                           previous: CrossShardDirectory
                           ) -> Tuple[CrossShardDirectory,
                                      DirectoryPublication]:
        """Publish one barrier's directory as a fold-verified delta.

        The full snapshot is still assembled (and its ownership
        invariants verified) every barrier — what changes is the modeled
        *wire* cost: barriers ship only the delta against the previous
        epoch, except every :data:`DEFAULT_ANCHOR_PERIOD`-th, which ships
        the full snapshot as an audit anchor. ``prev + delta == full`` is
        re-verified before the snapshot is installed, so a divergent
        delta can never propagate.
        """
        snapshots: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        for partition, scheme in enumerate(schemes):
            cache = scheme.cache
            assert isinstance(cache, PartitionedCacheManager)
            snapshots[partition] = cache.snapshot()
        directory = CrossShardDirectory.publish(
            snapshots, self._partitioner, version=version)
        directory.verify_backed_by({
            partition: [key for key, _ in snapshot]
            for partition, snapshot in snapshots.items()
        })
        delta = DirectoryDelta.between(previous, directory)
        verify_delta_fold(previous, delta, directory)
        publication = DirectoryPublication(
            epoch=version,
            entries=len(directory),
            adds=len(delta.adds),
            removes=len(delta.removes),
            moves=len(delta.moves),
            delta_bytes=delta.wire_bytes,
            full_bytes=directory.wire_bytes,
            anchored=version % DEFAULT_ANCHOR_PERIOD == 0,
        )
        for scheme in schemes:
            cache = scheme.cache
            assert isinstance(cache, PartitionedCacheManager)
            cache.set_directory(directory)
        return directory, publication

    def _checkpoint(self, schemes: Sequence[CachingScheme], barrier: float,
                    epoch: int, directory: CrossShardDirectory,
                    handoffs_applied: int = 0) -> PartitionCheckpoint:
        engines = [self._engine_of(scheme) for scheme in schemes]
        verify_subaccount_integrity(engines)
        payments, charges = verify_payment_conservation(engines)
        return PartitionCheckpoint(
            time_s=barrier,
            epoch=epoch,
            directory_size=len(directory),
            subaccount_credit=tuple(
                engine.account.credit for engine in engines),
            query_payments=payments,
            outcome_charges=charges,
            handoffs_applied=handoffs_applied,
        )

    def _sample_barrier(self, schemes: Sequence[CachingScheme],
                        barrier: float, epoch: int, is_final: bool,
                        directory: CrossShardDirectory,
                        publication: "DirectoryPublication",
                        handoffs_applied: int) -> None:
        """Take this barrier's metrics samples (read-only, post-barrier).

        One sample per partition (off its engine-held collector, so the
        per-epoch counter deltas pair with the gauges read here) plus one
        runner-level sample carrying the cross-partition barrier state
        (directory size, delta bytes, handoffs).
        """
        from repro.obs.metrics import metrics_part

        for scheme in schemes:
            engine = self._engine_of(scheme)
            collector = metrics_part(engine.trace)
            if collector is None:
                continue
            collector.sample(
                time_s=barrier, epoch=epoch, final=is_final,
                provider_credit=engine.account.credit,
                query_payments=engine.account.totals_by_category().get(
                    CloudAccount.CATEGORY_QUERY_PAYMENT, 0.0),
                wallet_credit=scheme.tenant_registry.total_credit(),
                remote_hits=engine.remote_hits,
                remote_surcharge_dollars=engine.remote_dollars,
                cache_entries=len(engine.partitioned_cache.entries),
                disk_used_bytes=engine.partitioned_cache.disk_used_bytes,
            )
        self._metrics.sample(
            time_s=barrier, epoch=epoch, final=is_final,
            directory_entries=len(directory),
            directory_delta_bytes=publication.delta_bytes,
            handoffs_applied=handoffs_applied,
        )

    @staticmethod
    def _engine_of(scheme: CachingScheme) -> PartitionedEconomyEngine:
        engine = getattr(scheme, "engine", None)
        if not isinstance(engine, PartitionedEconomyEngine):
            raise DistCacheError(
                f"scheme {scheme.name!r} is not running a partitioned engine")
        return engine

    def _partition_stats(self, partitions: Sequence[_Partition]
                         ) -> List[PartitionRunStats]:
        stats: List[PartitionRunStats] = []
        for index, partition in enumerate(partitions):
            engine = self._engine_of(partition.scheme)
            cache = engine.partitioned_cache
            stats.append(PartitionRunStats(
                partition_index=index,
                queries_served=partition.queries_served,
                local_structures=len(cache.built_keys),
                peak_cache_bytes=cache.peak_disk_used_bytes,
                subaccount_credit=engine.account.credit,
                query_payments=engine.account.totals_by_category().get(
                    CloudAccount.CATEGORY_QUERY_PAYMENT, 0.0),
                remote_hits=engine.remote_hits,
                remote_structure_accesses=engine.remote_structure_accesses,
                remote_bytes=engine.remote_bytes,
                remote_dollars=engine.remote_dollars,
            ))
        return stats


def run_partitioned_cell(config: TenantExperimentConfig,
                         partitions: int,
                         remote: RemoteAccessModel = RemoteAccessModel(),
                         compare_baseline: bool = True,
                         placement: str = "hash",
                         handoff_threshold: float = 0.0,
                         trace=None, metrics=None) -> DistCacheCellReport:
    """Run one tenant cell in partitioned-cache mode (convenience wrapper)."""
    runner = DistCacheRunner(partitions, remote=remote,
                             compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             trace=trace, metrics=metrics)
    return runner.run_cell(config)


def run_partitioned_experiment(configs: Sequence[TenantExperimentConfig],
                               partitions: int,
                               jobs: int = 1,
                               remote: RemoteAccessModel = RemoteAccessModel(),
                               compare_baseline: bool = True,
                               placement: str = "hash",
                               handoff_threshold: float = 0.0,
                               trace=None,
                               metrics=None) -> List[DistCacheCellReport]:
    """Run many cells partitioned, in ``configs`` order.

    ``jobs`` fans the cells out through
    :func:`~repro.experiments.runner.map_cells`; observed runs stay in
    process so records land in one recorder.
    """
    runner = DistCacheRunner(partitions, remote=remote,
                             compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             trace=trace, metrics=metrics)
    observed = trace is not None or metrics is not None
    return map_cells(runner.run_cell, configs, 1 if observed else jobs)
