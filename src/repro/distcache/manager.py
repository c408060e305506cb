"""A cache manager that owns exactly one partition of the structure keys.

:class:`PartitionedCacheManager` **is** a
:class:`~repro.cache.manager.CacheManager` — LRU capacity eviction,
idle-failure eviction, the ``min_residency_s`` grace, maintenance accrual
and amortisation bookkeeping are all inherited, not forked — with two
additions:

* an **ownership guard**: admitting a structure whose key hashes to a
  different partition raises, so the disjointness the directory and the
  exact merges rely on cannot be violated silently;
* a **directory view**: the current
  :class:`~repro.distcache.directory.CrossShardDirectory` snapshot, from
  which :meth:`remote_entry` answers "does this structure exist on some
  other partition?" for the pricing and investment layers.

Example:
    >>> from repro.distcache.partition import StructurePartitioner
    >>> partitioner = StructurePartitioner(partition_count=2)
    >>> cache = PartitionedCacheManager(partitioner=partitioner,
    ...                                 partition_index=0)
    >>> cache.partition_index
    0
    >>> cache.directory.version
    0
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro.cache.manager import CacheConfig, CacheManager
from repro.cache.storage import CacheEntry, EvictionRecord
from repro.distcache.directory import CrossShardDirectory, DirectoryEntry
from repro.distcache.partition import StructurePartitioner
from repro.errors import DistCacheError
from repro.structures.base import CacheStructure


class PartitionedCacheManager(CacheManager):
    """A :class:`CacheManager` scoped to one partition of the key space.

    Args:
        config: the usual cache capacity/eviction settings, applied to
            this partition's local budget.
        partitioner: the structure → partition mapping shared by all
            partitions of the run.
        partition_index: which partition this cache embodies.
        directory: the initial directory snapshot (defaults to empty).
    """

    def __init__(self, config: CacheConfig = CacheConfig(), *,
                 partitioner: StructurePartitioner,
                 partition_index: int,
                 directory: Optional[CrossShardDirectory] = None) -> None:
        super().__init__(config)
        partitioner.validate_index(partition_index)
        self._partitioner = partitioner
        self._partition_index = partition_index
        self._directory = directory or CrossShardDirectory.empty()
        self._remote_column_keys = self._scan_remote_columns(self._directory)

    # -- partition introspection ----------------------------------------------

    @property
    def partitioner(self) -> StructurePartitioner:
        """The shared structure → partition mapping."""
        return self._partitioner

    def set_partitioner(self, partitioner: StructurePartitioner) -> None:
        """Install the partitioner carrying the latest ownership overrides.

        Called by the runner when a settlement barrier applies adaptive
        handoffs: every partition must consult the same override table or
        the disjointness the directory and merges rely on would break.
        """
        partitioner.validate_index(self._partition_index)
        self._partitioner = partitioner

    @property
    def partition_index(self) -> int:
        """Which partition this cache owns."""
        return self._partition_index

    @property
    def directory(self) -> CrossShardDirectory:
        """The directory snapshot currently in force (read-only view)."""
        return self._directory

    def set_directory(self, directory: CrossShardDirectory) -> None:
        """Install the snapshot published at the latest settlement barrier."""
        self._directory = directory
        self._remote_column_keys = self._scan_remote_columns(directory)

    def _scan_remote_columns(self, directory: CrossShardDirectory
                             ) -> FrozenSet[str]:
        """Advertised column keys held by other partitions.

        Snapshots are immutable, so the scan runs once per installation
        instead of once per pricing/investment lookup.
        """
        return frozenset(
            entry.key for entry in directory.entries
            if entry.partition != self._partition_index
            and entry.key.startswith("column:")
        )

    @property
    def remote_column_keys(self) -> FrozenSet[str]:
        """Column keys readable remotely under the current snapshot."""
        return self._remote_column_keys

    def owns(self, key: str) -> bool:
        """Whether this partition is the hash-owner of structure ``key``."""
        return self._partitioner.owns(self._partition_index, key)

    def remote_entry(self, key: str) -> Optional[DirectoryEntry]:
        """``key``'s directory entry on another partition, if advertised.

        Local presence wins: a key this cache holds is never "remote",
        and the directory cannot advertise it elsewhere (ownership is
        verified at publication).
        """
        if self.contains(key):
            return None
        return self._directory.remote_entry(key, viewer=self._partition_index)

    def snapshot(self) -> Tuple[Tuple[str, int], ...]:
        """``(key, size_bytes)`` of every live structure, for publication."""
        return tuple((entry.key, entry.size_bytes)
                     for entry in self.entries)

    # -- guarded admission -----------------------------------------------------

    def admit(self, structure: CacheStructure, size_bytes: int,
              build_cost: float, maintenance_rate: float,
              now: float) -> List[EvictionRecord]:
        """Admit an owned structure (see :meth:`CacheManager.admit`).

        Raises:
            DistCacheError: if the structure's key hashes to another
                partition — foreign state must never materialise locally.
        """
        if not self.owns(structure.key):
            raise DistCacheError(
                f"structure {structure.key!r} belongs to partition "
                f"{self._partitioner.partition_of(structure.key)}, not "
                f"{self._partition_index}; foreign structures must never "
                f"be admitted locally"
            )
        return super().admit(structure, size_bytes, build_cost,
                             maintenance_rate, now)

    # -- ownership handoff -----------------------------------------------------

    def extract_entry(self, key: str) -> CacheEntry:
        """Release a live entry for handoff to another partition.

        Unlike :meth:`CacheManager.evict` this records **no** eviction —
        the structure is not leaving the cache tier, only changing owner —
        and the entry keeps its full accounting state (build cost,
        billing watermark, usage recency) so the new owner continues the
        bookkeeping exactly where this partition stopped.

        Raises:
            DistCacheError: if the key is not resident here.
        """
        if not self.contains(key):
            raise DistCacheError(
                f"cannot hand off {key!r}: not resident on partition "
                f"{self._partition_index}")
        entry = self._entries.pop(key)
        self._lru.discard(key)
        # The contents changed: memos keyed on the version (batched
        # pricing states, the cached-column set) must not keep pricing
        # an entry that now lives on another partition.
        self._version += 1
        if self._trace is not None:
            self._trace.count("cache:handoff_out")
        return entry

    def install_entry(self, entry: CacheEntry, now: float
                      ) -> List[EvictionRecord]:
        """Adopt an entry handed off by the previous owner.

        The ownership guard applies just like :meth:`admit` (the runner
        installs the override table *before* moving entries, so the new
        owner genuinely owns the key by the time this runs), and a
        capacity budget is honoured by LRU-evicting local entries to make
        room — the handoff must not silently overcommit the partition.

        Raises:
            DistCacheError: if this partition does not own the key, or
                the key is already resident.
        """
        key = entry.key
        if not self.owns(key):
            raise DistCacheError(
                f"cannot install {key!r} on partition "
                f"{self._partition_index}: partition "
                f"{self._partitioner.partition_of(key)} owns it")
        if self.contains(key):
            raise DistCacheError(
                f"cannot install {key!r}: already resident on partition "
                f"{self._partition_index}")
        evicted: List[EvictionRecord] = []
        if self._config.capacity_bytes is not None:
            evicted = self._evict_to_fit(entry.size_bytes, now)
        self._entries[key] = entry
        self._lru.touch(key)
        self._version += 1
        # Like admit: the handed-in entry may fail before the horizon the
        # last scan computed from the local entries alone.
        self._failure_horizon = None
        self._peak_disk_used_bytes = max(self._peak_disk_used_bytes,
                                         self.disk_used_bytes)
        if self._trace is not None:
            self._trace.count("cache:handoff_in")
        return evicted
