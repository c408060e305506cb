"""Tests for the partition-scoped cache manager (ownership + directory)."""

import pytest

from repro.cache.manager import CacheConfig
from repro.distcache import (
    CrossShardDirectory,
    PartitionedCacheManager,
    StructurePartitioner,
)
from repro.errors import DistCacheError
from repro.structures.cached_column import CachedColumn


def columns_owned_by(partitioner, partition, count=1):
    """``count`` CachedColumns whose keys hash to ``partition``."""
    found = []
    for i in range(10_000):
        column = CachedColumn("lineitem", f"c{i}")
        if partitioner.partition_of(column.key) == partition:
            found.append(column)
            if len(found) == count:
                return found
    raise AssertionError("not enough keys found")


def admit(manager, structure, size=100, cost=10.0, rate=0.01, now=0.0):
    return manager.admit(structure, size_bytes=size, build_cost=cost,
                         maintenance_rate=rate, now=now)


@pytest.fixture
def partitioner():
    return StructurePartitioner(partition_count=2)


@pytest.fixture
def cache(partitioner):
    return PartitionedCacheManager(partitioner=partitioner, partition_index=0)


class TestOwnershipGuard:
    def test_owned_structure_admits_normally(self, partitioner, cache):
        column, = columns_owned_by(partitioner, 0)
        admit(cache, column, size=500)
        assert cache.contains(column.key)
        assert cache.owns(column.key)
        assert cache.disk_used_bytes == 500

    def test_foreign_structure_rejected(self, partitioner, cache):
        column, = columns_owned_by(partitioner, 1)
        with pytest.raises(DistCacheError, match="belongs to partition"):
            admit(cache, column)
        assert not cache.contains(column.key)

    def test_inherits_cache_manager_semantics(self, partitioner):
        """LRU capacity eviction is reused, not forked: the budgeted
        partition evicts its least-recently-used owned entry."""
        cache = PartitionedCacheManager(
            CacheConfig(capacity_bytes=1_000),
            partitioner=partitioner, partition_index=0)
        first, second, third = columns_owned_by(partitioner, 0, count=3)
        admit(cache, first, size=400, now=0.0)
        admit(cache, second, size=400, now=1.0)
        cache.record_usage([first.key], now=2.0)
        evicted = admit(cache, third, size=400, now=3.0)
        assert [record.key for record in evicted] == [second.key]

    def test_invalid_partition_index_rejected(self, partitioner):
        with pytest.raises(DistCacheError):
            PartitionedCacheManager(partitioner=partitioner, partition_index=2)


class TestDirectoryView:
    def test_starts_with_empty_directory(self, cache):
        assert cache.directory.version == 0
        assert cache.remote_entry("column:lineitem.c0") is None

    def test_remote_entry_reflects_directory(self, partitioner, cache):
        column, = columns_owned_by(partitioner, 1)
        directory = CrossShardDirectory.publish(
            {1: [(column.key, 777)]}, partitioner, version=1)
        cache.set_directory(directory)
        entry = cache.remote_entry(column.key)
        assert entry is not None
        assert entry.partition == 1
        assert entry.size_bytes == 777

    def test_local_presence_beats_directory(self, partitioner, cache):
        column, = columns_owned_by(partitioner, 0)
        admit(cache, column)
        directory = CrossShardDirectory.publish(
            {0: [(column.key, 100)]}, partitioner, version=1)
        cache.set_directory(directory)
        assert cache.remote_entry(column.key) is None

    def test_snapshot_lists_live_structures(self, partitioner, cache):
        first, second = columns_owned_by(partitioner, 0, count=2)
        admit(cache, first, size=10)
        admit(cache, second, size=20)
        assert cache.snapshot() == ((first.key, 10), (second.key, 20))


class TestPeakBytes:
    def test_peak_survives_eviction(self, partitioner, cache):
        first, second = columns_owned_by(partitioner, 0, count=2)
        admit(cache, first, size=300, now=0.0)
        admit(cache, second, size=500, now=1.0)
        assert cache.peak_disk_used_bytes == 800
        cache.evict(first.key, now=2.0)
        assert cache.disk_used_bytes == 500
        assert cache.peak_disk_used_bytes == 800


class TestHandoff:
    """An ownership handoff changes cache contents like admit/evict do."""

    def handed_over(self, partitioner, now=0.0):
        """(source, target, column): ``column`` built on partition 0,
        with ownership moved to partition 1 as a barrier would."""
        column, = columns_owned_by(partitioner, 0)
        moved = partitioner.with_overrides({column.key: 1})
        source = PartitionedCacheManager(partitioner=partitioner,
                                         partition_index=0)
        target = PartitionedCacheManager(partitioner=partitioner,
                                         partition_index=1)
        admit(source, column, now=now)
        source.set_partitioner(moved)
        target.set_partitioner(moved)
        return source, target, column

    def test_extract_and_install_bump_the_version(self, partitioner):
        source, target, column = self.handed_over(partitioner)
        source_version, target_version = source.version, target.version
        entry = source.extract_entry(column.key)
        assert source.version > source_version
        target.install_entry(entry, now=1.0)
        assert target.version > target_version
        assert target.contains(column.key)
        assert not source.contains(column.key)

    def test_installed_entry_fails_on_time(self, partitioner):
        """A handed-in entry idler than every local one must fail at its
        own failure time, not at the horizon the last scan computed."""
        config = CacheConfig(max_idle_s=100.0, column_idle_multiplier=1.0)
        old, = columns_owned_by(partitioner, 0)
        young, = columns_owned_by(partitioner, 1)
        source = PartitionedCacheManager(config, partitioner=partitioner,
                                         partition_index=0)
        target = PartitionedCacheManager(config, partitioner=partitioner,
                                         partition_index=1)
        admit(source, old, now=0.0)                     # fails at 100
        admit(target, young, now=50.0)                  # fails at 150
        assert target.evict_failed_structures(60.0) == []
        moved = partitioner.with_overrides({old.key: 1})
        source.set_partitioner(moved)
        target.set_partitioner(moved)
        target.install_entry(source.extract_entry(old.key), now=60.0)
        failed = target.evict_failed_structures(120.0)
        assert [record.key for record in failed] == [old.key]

    def test_adaptive_handoff_reprices_against_the_new_owner(self):
        """Regression: with batched pricing memos keyed on the cache
        version, a handoff used to leave the old owner pricing the moved
        entry and billing it again (``time went backwards``)."""
        from repro.distcache import run_partitioned_cell
        from repro.experiments.tenants import TenantExperimentConfig
        from repro.workload.grammar import InvalidationShock

        from scalar_oracle import oracle_planning

        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=8, query_count=60,
            interarrival_s=5.0, seed=128, settlement_period_s=25.0,
            shocks=(InvalidationShock(at_fraction=0.0, predicate=""),))

        def cell():
            return run_partitioned_cell(config, partitions=2,
                                        compare_baseline=False,
                                        placement="adaptive",
                                        handoff_threshold=0.0)

        report = cell()
        assert report.handoff_count > 0
        with oracle_planning():
            oracle = cell()
        assert report.cell.summary == oracle.cell.summary
        assert report.checkpoints == oracle.checkpoints
        assert report.partitions == oracle.partitions
