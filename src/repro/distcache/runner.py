"""The partitioned-cell runner: epochs, barriers, directory publication.

One partitioned cell run executes like this::

    route queries by template  ->  partition 0 .. N-1 substreams
    for each epoch (settlement barrier to settlement barrier):
        every partition replays its substream slice against its OWN
        PartitionedCacheManager + provider sub-account (in-process, or
        fanned over a ProcessPoolExecutor when max_workers > 1)
        at the barrier:
            settle maintenance on every partition up to the barrier
            [adaptive placement] drain per-structure benefit bids,
            apply the PlacementPolicy's ownership handoffs (override
            table + residency state + in-flight regret move together)
            route foreign regret to the (possibly new) owners
            publish the directory: a delta against the previous epoch,
            fold-verified (prev + delta == full) with a periodic
            full-snapshot anchor
            verify sub-account ledger integrity + payment conservation
    final barrier: wallet integrity audit, fold into a TenantCellResult

Workers are stateless between epochs: a partition's entire mutable state
(cache, sub-account, regret, registry) travels inside its pickled scheme,
so every epoch task is a pure function of its inputs and the run is
deterministic regardless of pool scheduling — ``max_workers`` changes
wall-clock, never results.

Unlike the replicated-replay sharding mode, each query here is planned,
priced, and negotiated by exactly **one** partition: total per-query
compute stays ~constant as partitions are added, instead of multiplying.
The price is weaker semantics (epoch-consistent directory, remote-access
surcharges, owned-only investment) — quantified for every run by the
divergence report against the global-cache baseline and documented in
``docs/distcache.md``.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
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
from repro.economy.tenancy import TenantRegistry
from repro.errors import DistCacheError
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    build_population,
    run_tenant_cell,
)
from repro.policies.base import CachingScheme, SchemeStep
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.events import (
    ProviderPriceShockEvent,
    StructureInvalidationEvent,
    TenantBudgetSqueezeEvent,
)
from repro.simulator.metrics import MetricsSummary
from repro.simulator.simulation import trailing_interval_for
from repro.system import CloudSystem
from repro.workload.grammar import compile_shock_events

#: Event-order ranks mirroring :mod:`repro.simulator.events`: at one
#: instant, lifecycle markers apply before the barrier settles, the
#: barrier settles before simultaneous market shocks land, and shocks
#: land before simultaneous queries run.
_PRIORITY_ARRIVAL = 4
_PRIORITY_CHURN = 6
_PRIORITY_BARRIER = 10
_PRIORITY_INVALIDATION = 12
_PRIORITY_PRICE_SHOCK = 14
_PRIORITY_SQUEEZE = 16
_PRIORITY_QUERY = 30


class PartitionImbalanceWarning(UserWarning):
    """More cache partitions than busy templates: some serve no queries."""


@dataclass(frozen=True)
class PartitionEpochTask:
    """Everything one partition worker needs to replay one epoch."""

    scheme: CachingScheme
    items: Tuple[Tuple[int, object], ...]
    settle_to_s: float
    last_settled_s: float


@dataclass(frozen=True)
class PartitionEpochResult:
    """One partition's epoch output: updated state plus the replay record.

    ``eviction_losses`` carries the dollar loss of each kernel-driven
    eviction (invalidation shocks, strict-maintenance shutdowns) in
    event order, so the merge can book them exactly like
    ``MetricsCollector.record_kernel_evictions`` does in the
    unpartitioned run.
    """

    scheme: CachingScheme
    steps: Tuple[SchemeStep, ...]
    maintenance: Tuple[Tuple[float, float], ...]
    last_settled_s: float
    eviction_losses: Tuple[float, ...] = ()


#: Placement modes: ``hash`` pins every structure to its hash owner
#: (byte-identical to the pre-placement behaviour), ``adaptive`` applies
#: demand-driven ownership handoffs at settlement barriers.
PLACEMENT_MODES = ("hash", "adaptive")

#: Publish a full-snapshot anchor every this many barriers by default;
#: all other barriers publish (and fold-verify) only the delta.
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


def run_partition_epoch(task: PartitionEpochTask) -> PartitionEpochResult:
    """Replay one partition's slice of one epoch (process-pool entry point).

    Items carry the same instant-ordering ranks the simulation kernel
    uses, so maintenance settles at exactly the instants — and in exactly
    the order — the unpartitioned event loop would settle at.
    """
    if not isinstance(task, PartitionEpochTask):
        raise DistCacheError(
            f"expected a PartitionEpochTask, got {type(task).__name__}")
    scheme = task.scheme
    registry = scheme.tenant_registry
    steps: List[SchemeStep] = []
    maintenance: List[Tuple[float, float]] = []
    eviction_losses: List[float] = []
    last_settled_s = task.last_settled_s
    # Economic schemes score the whole epoch slice in one vectorized pass;
    # the bypass scheme ignores the priming (see CachingScheme.prime_workload).
    scheme.prime_workload(tuple(
        payload for rank, payload in task.items if rank == _PRIORITY_QUERY
    ))

    def settle(now: float) -> None:
        nonlocal last_settled_s
        elapsed = now - last_settled_s
        last_settled_s = max(last_settled_s, now)
        if elapsed <= 0:
            return
        maintenance.append((scheme.maintenance_rate() * elapsed, elapsed))

    for rank, payload in task.items:
        if rank == _PRIORITY_QUERY:
            settle(payload.arrival_time)
            steps.append(scheme.process(payload))
        elif rank == _PRIORITY_ARRIVAL:
            if registry is not None:
                registry.activate(payload.tenant_id, now=payload.time_s)
        elif rank == _PRIORITY_CHURN:
            if registry is not None:
                registry.deactivate(payload.tenant_id, now=payload.time_s)
        elif rank == _PRIORITY_INVALIDATION:
            # Maintenance settles at pre-fault rates first, mirroring the
            # kernel's settle-at-every-event contract. The partition only
            # holds (and therefore only destroys) its own structures; the
            # loss propagates to the directory at the next barrier.
            settle(payload.time_s)
            records = scheme.apply_invalidation(payload.predicate,
                                                payload.time_s)
            eviction_losses.extend(
                scheme.eviction_loss(record) for record in records)
        elif rank == _PRIORITY_PRICE_SHOCK:
            settle(payload.time_s)
            scheme.apply_price_shock(payload.factor, payload.time_s)
        elif rank == _PRIORITY_SQUEEZE:
            settle(payload.time_s)
            scheme.apply_budget_squeeze(payload.factor, payload.time_s)
        else:
            raise DistCacheError(f"unknown epoch item rank {rank}")
    settle(task.settle_to_s)
    # The barrier doubles as the settlement event: strict-maintenance
    # shutdown priorities run here, exactly like SchemeTenant.on_settlement.
    records = scheme.enforce_maintenance(task.settle_to_s)
    eviction_losses.extend(
        scheme.eviction_loss(record) for record in records)
    return PartitionEpochResult(
        scheme=scheme,
        steps=tuple(steps),
        maintenance=tuple(maintenance),
        last_settled_s=last_settled_s,
        eviction_losses=tuple(eviction_losses),
    )


class DistCacheRunner:
    """Runs tenant cells in partitioned-cache mode.

    Args:
        partition_count: cache partitions per cell.
        max_workers: process-pool size for the per-epoch partition tasks.
        remote: the remote-access surcharge model in force.
        compare_baseline: also run the global-cache twin for the
            divergence report (skipped with one partition).
        placement: ``"hash"`` (static hash ownership, byte-identical to
            the pre-placement runner) or ``"adaptive"`` (demand-driven
            ownership handoffs at settlement barriers).
        handoff_threshold: hysteresis margin in dollars per epoch a
            challenger must exceed the incumbent by (adaptive mode).
        anchor_period: publish a full-snapshot anchor every this many
            barriers; the others publish fold-verified deltas.
    """

    def __init__(self, partition_count: int, max_workers: int = 1,
                 remote: RemoteAccessModel = RemoteAccessModel(),
                 compare_baseline: bool = True,
                 placement: str = "hash",
                 handoff_threshold: float = 0.0,
                 anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                 trace=None, metrics=None) -> None:
        if partition_count < 1:
            raise DistCacheError(
                f"partition_count must be >= 1, got {partition_count}")
        if max_workers < 1:
            raise DistCacheError(
                f"max_workers must be >= 1, got {max_workers}")
        if placement not in PLACEMENT_MODES:
            raise DistCacheError(
                f"placement must be one of {', '.join(PLACEMENT_MODES)}; "
                f"got {placement!r}")
        if not handoff_threshold >= 0:  # `not >=` also rejects NaN
            raise DistCacheError(
                f"handoff_threshold must be >= 0, got {handoff_threshold}")
        if anchor_period < 1:
            raise DistCacheError(
                f"anchor_period must be >= 1, got {anchor_period}")
        self._base_partitioner = StructurePartitioner(partition_count)
        self._partitioner = self._base_partitioner
        self._router = QueryRouter(partition_count)
        self._max_workers = max_workers
        self._remote = remote
        self._compare_baseline = compare_baseline
        self._placement = placement
        self._handoff_threshold = handoff_threshold
        self._anchor_period = anchor_period
        # Observability sinks (duck-typed TraceRecorder); None = disabled.
        # Per-partition recorders live on the engines (travelling through
        # the per-epoch pickle round-trips inside their schemes) and are
        # absorbed into these collectors when a cell completes. The
        # partitioned run has no kernel, so the barrier loop below doubles
        # as the metrics sampler: per-partition samples are taken off the
        # live engines at every barrier, exactly where a kernel run's
        # settlement observer would fire.
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
                       profiles) -> List[CachingScheme]:
        """One scheme (cache + sub-account + full registry) per partition."""
        if config.scheme == "bypass":
            raise DistCacheError(
                "partitioned mode requires an economy; the bypass baseline "
                "has none (run it with --cache-partitions 1)"
            )
        system = CloudSystem()
        partition_count = self.partition_count
        schemes: List[CachingScheme] = []
        for index in range(partition_count):
            registry = TenantRegistry()
            registry.register_all(profiles)

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

    def _epoch_items(self, queries, lifecycle, shocks=()
                     ) -> List[List[Tuple[float, int, int, object]]]:
        """Per-partition item lists in kernel dispatch order.

        Every partition receives its routed queries plus *all* lifecycle
        markers and market-shock events (each partition holds the full
        registry, and a shock hits the whole market — an invalidation
        must destroy matches on every partition, a repricing reprices
        every sub-economy); items are ``(time, rank, insertion,
        payload)`` sorted exactly like the kernel's ``(time_s, priority,
        FIFO)`` queue — queries are scheduled first, markers after,
        shocks last, matching ``_run_tenants``.
        """
        shock_ranks = {
            StructureInvalidationEvent: _PRIORITY_INVALIDATION,
            ProviderPriceShockEvent: _PRIORITY_PRICE_SHOCK,
            TenantBudgetSqueezeEvent: _PRIORITY_SQUEEZE,
        }
        sequenced: List[Tuple[float, int, int, object]] = []
        counter = 0
        for query in queries:
            sequenced.append(
                (query.arrival_time, _PRIORITY_QUERY, counter, query))
            counter += 1
        for marker in lifecycle:
            rank = (_PRIORITY_ARRIVAL if marker.kind == "arrival"
                    else _PRIORITY_CHURN)
            sequenced.append((marker.time_s, rank, counter, marker))
            counter += 1
        for event in shocks:
            sequenced.append(
                (event.time_s, shock_ranks[type(event)], counter, event))
            counter += 1
        sequenced.sort(key=lambda item: item[:3])

        per_partition: List[List[Tuple[float, int, int, object]]] = [
            [] for _ in range(self.partition_count)
        ]
        for time_s, rank, insertion, payload in sequenced:
            if rank == _PRIORITY_QUERY:
                targets = [self._router.partition_of(payload)]
            else:
                targets = range(self.partition_count)
            for partition in targets:
                per_partition[partition].append(
                    (time_s, rank, insertion, payload))
        return per_partition

    # -- execution -------------------------------------------------------------

    def run_cell(self, config: TenantExperimentConfig) -> DistCacheCellReport:
        """Run one cell partitioned; audit every barrier; merge exactly."""
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
        populated = build_population(config)
        queries = list(populated.queries)
        schemes = self._build_schemes(config, populated.profiles)
        if self._trace is not None or self._metrics is not None:
            # Per-partition recorders ride inside the schemes through the
            # per-epoch worker round-trips; absorbed after the last barrier.
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
        items = self._epoch_items(
            queries, populated.lifecycle,
            compile_shock_events(config.shocks, populated.queries))

        routed_counts = [
            sum(1 for _, rank, _, _ in partition_items
                if rank == _PRIORITY_QUERY)
            for partition_items in items
        ]
        if min(routed_counts) == 0:
            warnings.warn(
                f"cache partition count {self.partition_count} exceeds the "
                f"workload's busy template count; some cache partitions "
                f"serve no queries",
                PartitionImbalanceWarning,
                stacklevel=2,
            )

        start_s = queries[0].arrival_time
        trailing_s = trailing_interval_for(queries)
        end_s = queries[-1].arrival_time + trailing_s
        barriers: List[float] = []
        if config.settlement_period_s is not None:
            cut = start_s + config.settlement_period_s
            while cut <= end_s:
                barriers.append(cut)
                cut += config.settlement_period_s
        if not barriers or barriers[-1] != end_s:
            barriers.append(end_s)

        cursor = [0] * self.partition_count
        last_settled = [start_s] * self.partition_count
        steps: List[List[SchemeStep]] = [[] for _ in schemes]
        maintenance: List[List[Tuple[float, float]]] = [[] for _ in schemes]
        kernel_losses: List[List[float]] = [[] for _ in schemes]
        checkpoints: List[PartitionCheckpoint] = []
        handoffs: List[HandoffRecord] = []
        publications: List[DirectoryPublication] = []
        directory = CrossShardDirectory.empty()

        executor: Optional[ProcessPoolExecutor] = None
        workers = min(self._max_workers, self.partition_count)
        if workers > 1:
            executor = ProcessPoolExecutor(max_workers=workers)
        try:
            for epoch, barrier in enumerate(barriers):
                is_final = epoch == len(barriers) - 1
                tasks: List[PartitionEpochTask] = []
                for partition, scheme in enumerate(schemes):
                    partition_items = items[partition]
                    begin = cursor[partition]
                    index = begin
                    while index < len(partition_items):
                        time_s, rank, _, _ = partition_items[index]
                        # Interior barriers cut like the kernel's event
                        # order: a settlement outranks same-instant
                        # queries. The final barrier closes the run, so it
                        # drains everything (a zero-trailing run can place
                        # its last arrival exactly at the end instant).
                        if (not is_final
                                and (time_s, rank) >= (barrier,
                                                       _PRIORITY_BARRIER)):
                            break
                        index += 1
                    cursor[partition] = index
                    tasks.append(PartitionEpochTask(
                        scheme=scheme,
                        items=tuple((rank, payload) for _, rank, _, payload
                                    in partition_items[begin:index]),
                        settle_to_s=barrier,
                        last_settled_s=last_settled[partition],
                    ))
                if executor is not None:
                    results = list(executor.map(run_partition_epoch, tasks))
                else:
                    results = [run_partition_epoch(task) for task in tasks]

                for partition, result in enumerate(results):
                    schemes[partition] = result.scheme
                    steps[partition].extend(result.steps)
                    maintenance[partition].extend(result.maintenance)
                    kernel_losses[partition].extend(result.eviction_losses)
                    last_settled[partition] = result.last_settled_s

                applied: List[HandoffRecord] = []
                if policy is not None:
                    applied = self._apply_handoffs(
                        schemes, policy, epoch=epoch + 1, now=barrier)
                    handoffs.extend(applied)
                self._forward_regret(schemes)
                directory, publication = self._publish_directory(
                    schemes, epoch + 1, previous=directory)
                publications.append(publication)
                checkpoints.append(self._checkpoint(
                    schemes, barrier, epoch + 1, directory,
                    handoffs_applied=len(applied)))
                if self._trace is not None:
                    epoch_start = barriers[epoch - 1] if epoch else start_s
                    self._trace.span(
                        "settlement_barrier", start_s=epoch_start,
                        end_s=barrier, epoch=epoch + 1,
                        directory_entries=len(directory),
                        directory_delta_bytes=publication.delta_bytes,
                        handoffs_applied=len(applied), final=is_final)
                    for record in applied:
                        self._trace.event(
                            "handoff", time_s=barrier, key=record.key,
                            from_partition=record.from_partition,
                            to_partition=record.to_partition)
                if self._metrics is not None:
                    self._sample_barrier(schemes, barrier, epoch + 1,
                                         is_final, directory, publication,
                                         len(applied))
        finally:
            if executor is not None:
                executor.shutdown()

        registries = [scheme.tenant_registry for scheme in schemes]
        verify_wallet_integrity(registries)
        cell = merge_partition_results(
            config=config,
            steps_by_partition=steps,
            maintenance_by_partition=maintenance,
            registries=registries,
            duration_s=end_s - start_s,
            population_size=populated.tenant_count,
            churn_waves=populated.churn_waves,
            kernel_losses_by_partition=kernel_losses,
        )
        if self._trace is not None or self._metrics is not None:
            from repro.obs.metrics import metrics_part, trace_part

            for partition, scheme in enumerate(schemes):
                engine = self._engine_of(scheme)
                if self._trace is not None:
                    self._trace.event(
                        "partition_summary", time_s=end_s,
                        partition=partition,
                        queries_served=len(steps[partition]),
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
        baseline: Optional[MetricsSummary] = None
        if self._compare_baseline and self.partition_count > 1:
            baseline = run_tenant_cell(config).summary
        return DistCacheCellReport(
            cell=cell,
            partition_count=self.partition_count,
            partitions=tuple(self._partition_stats(schemes, steps)),
            checkpoints=tuple(checkpoints),
            directory_size=len(directory),
            remote=self._remote,
            baseline=baseline,
            placement=self._placement,
            handoff_threshold=self._handoff_threshold,
            handoffs=tuple(handoffs),
            publications=tuple(publications),
        )

    def run_cells(self, configs: Sequence[TenantExperimentConfig]
                  ) -> List[DistCacheCellReport]:
        """Run many cells (sequentially; partitions parallelise within)."""
        cells = list(configs)
        if not cells:
            raise DistCacheError("at least one tenant cell is required")
        return [self.run_cell(config) for config in cells]

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
        epoch, except every ``anchor_period``-th, which ships the full
        snapshot as an audit anchor. ``prev + delta == full`` is
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
            anchored=version % self._anchor_period == 0,
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

    def _partition_stats(self, schemes: Sequence[CachingScheme],
                         steps: Sequence[Sequence[SchemeStep]]
                         ) -> List[PartitionRunStats]:
        stats: List[PartitionRunStats] = []
        for partition, scheme in enumerate(schemes):
            engine = self._engine_of(scheme)
            cache = engine.partitioned_cache
            stats.append(PartitionRunStats(
                partition_index=partition,
                queries_served=len(steps[partition]),
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
                         max_workers: int = 1,
                         remote: RemoteAccessModel = RemoteAccessModel(),
                         compare_baseline: bool = True,
                         placement: str = "hash",
                         handoff_threshold: float = 0.0,
                         anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                         trace=None, metrics=None) -> DistCacheCellReport:
    """Run one tenant cell in partitioned-cache mode (convenience wrapper)."""
    runner = DistCacheRunner(partitions, max_workers=max_workers,
                             remote=remote, compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             anchor_period=anchor_period,
                             trace=trace, metrics=metrics)
    return runner.run_cell(config)


def run_partitioned_experiment(configs: Sequence[TenantExperimentConfig],
                               partitions: int,
                               jobs: int = 1,
                               remote: RemoteAccessModel = RemoteAccessModel(),
                               compare_baseline: bool = True,
                               placement: str = "hash",
                               handoff_threshold: float = 0.0,
                               anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                               trace=None,
                               metrics=None) -> List[DistCacheCellReport]:
    """Run many cells partitioned; ``jobs`` sizes each cell's worker pool."""
    runner = DistCacheRunner(partitions, max_workers=jobs, remote=remote,
                             compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             anchor_period=anchor_period,
                             trace=trace, metrics=metrics)
    return runner.run_cells(configs)
