"""Partitioned cache & provider economy: scale per-query compute.

This subsystem partitions the cache and the provider economy
themselves: a stable hash assigns every structure key to exactly one
partition (:class:`StructurePartitioner`), queries route to partitions by
template affinity (:class:`QueryRouter`), each partition runs its own
:class:`PartitionedCacheManager` and provider sub-account, and a
:class:`CrossShardDirectory` published at every settlement barrier lets
partitions use each other's structures for a modeled remote-access
surcharge (:class:`RemoteAccessModel`). Each query is planned, priced,
and negotiated by exactly one partition — per-query compute stays flat as
partitions are added.

Placement is hash-static by default, but ``placement="adaptive"`` lets a
:class:`PlacementPolicy` hand structures to the partition deriving the
most priced benefit from them at each barrier (override table in
:class:`StructurePartitioner`; residency and in-flight regret move with
the structure, money does not). Barriers publish the directory as
fold-verified :class:`DirectoryDelta` records (``prev + delta == full``)
with a periodic full-snapshot anchor, so the barrier cost tracks churn
rather than cache size.

The price is **new, explicitly different semantics** (epoch-consistent
directory, remote hits, owned-only investment) — see ``docs/distcache.md``
for the contract and the bitwise conservation audits. With one partition
the mode degenerates exactly: the report tables are byte-identical to
the global-cache path.

Typical use, directly or through ``repro.cli tenants --cache-partitions N``::

    from repro.distcache import run_partitioned_cell
    from repro.experiments.tenants import TenantExperimentConfig

    report = run_partitioned_cell(
        TenantExperimentConfig(tenant_count=200, settlement_period_s=60.0),
        partitions=4)
    report.cell                 # merged TenantCellResult
    report.barriers_verified    # audited settlement barriers
    report.baseline             # global-cache summary for the same seed

A cell's partitions share one process and one event kernel, fed by the
cell's streamed arrivals; ``run_partitioned_experiment``'s ``jobs`` fans
independent cells over worker processes instead.
"""

from repro.distcache.directory import (
    CrossShardDirectory,
    DirectoryDelta,
    DirectoryEntry,
    verify_delta_fold,
)
from repro.distcache.engine import (
    PartitionedEconomyEngine,
    RemoteAccessModel,
)
from repro.distcache.manager import PartitionedCacheManager
from repro.distcache.merge import (
    PartitionCheckpoint,
    ledger_fold,
    merge_partition_results,
    verify_payment_conservation,
    verify_subaccount_integrity,
    verify_wallet_integrity,
)
from repro.distcache.partition import QueryRouter, StructurePartitioner
from repro.distcache.placement import (
    HandoffDecision,
    HandoffRecord,
    PlacementPolicy,
)
from repro.distcache.report import (
    distcache_divergence_table,
    distcache_partition_table,
    distcache_placement_table,
)
from repro.distcache.runner import (
    DEFAULT_ANCHOR_PERIOD,
    PLACEMENT_MODES,
    DirectoryPublication,
    DistCacheCellReport,
    DistCacheRunner,
    PartitionImbalanceWarning,
    PartitionRunStats,
    run_partitioned_cell,
    run_partitioned_experiment,
)

__all__ = [
    "DEFAULT_ANCHOR_PERIOD",
    "PLACEMENT_MODES",
    "CrossShardDirectory",
    "DirectoryDelta",
    "DirectoryEntry",
    "DirectoryPublication",
    "DistCacheCellReport",
    "DistCacheRunner",
    "HandoffDecision",
    "HandoffRecord",
    "PartitionCheckpoint",
    "PartitionImbalanceWarning",
    "PartitionRunStats",
    "PartitionedCacheManager",
    "PartitionedEconomyEngine",
    "PlacementPolicy",
    "QueryRouter",
    "RemoteAccessModel",
    "StructurePartitioner",
    "distcache_divergence_table",
    "distcache_partition_table",
    "distcache_placement_table",
    "ledger_fold",
    "merge_partition_results",
    "run_partitioned_cell",
    "run_partitioned_experiment",
    "verify_delta_fold",
    "verify_payment_conservation",
    "verify_subaccount_integrity",
    "verify_wallet_integrity",
]
