"""The cache manager.

Tracks built structures, their disk usage, their maintenance accrual, and
performs two kinds of eviction:

* **capacity eviction** (LRU): when the cache has a hard byte budget — the
  bypass-yield baseline uses 30 % of the database size — admitting a new
  structure evicts the least-recently-used ones until it fits;
* **failure eviction** ("structure failure", footnote 3): a structure that
  no selected plan has used (and paid maintenance for) within a bounded
  wall-clock window fails and is dropped. This is what lets the economy
  adapt when the workload evolves and is the mechanism behind the
  60-second-interval behaviour of Figures 4 and 5: the same number of
  unused queries corresponds to a much longer — and costlier — idle spell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cache.lru import LruTracker
from repro.cache.storage import CacheEntry, EvictionRecord
from repro.errors import CacheError, InsufficientSpaceError
from repro.structures.base import CacheStructure, StructureKind


@dataclass(frozen=True)
class CacheConfig:
    """Capacity and eviction settings of the cache.

    Attributes:
        capacity_bytes: hard disk budget, or ``None`` for the paper's
            "unlimited storage" cloud setting.
        max_idle_s: a structure that no selected plan has used for this many
            simulated seconds fails and is released ("structure failure",
            footnote 3: its maintenance keeps accruing with nobody paying
            for it). Because the rule is expressed in wall-clock idleness,
            longer query inter-arrival times make the same number of unused
            queries far more damaging — the effect behind the 60-second
            results of Figures 4 and 5. ``None`` disables failure eviction.
        column_idle_multiplier: grace multiplier applied to cached columns'
            idle limit. Section VII-B: columns "are small compared to
            indexes and they are less eligible for eviction".
        min_residency_s: a structure is never failed sooner than this after
            being built, giving it a chance to serve queries.
    """

    capacity_bytes: Optional[int] = None
    max_idle_s: Optional[float] = 7_200.0
    column_idle_multiplier: float = 4.0
    min_residency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise CacheError("capacity_bytes must be positive or None")
        if self.max_idle_s is not None and self.max_idle_s <= 0:
            raise CacheError("max_idle_s must be positive or None")
        if self.column_idle_multiplier < 1.0:
            raise CacheError("column_idle_multiplier must be >= 1")
        if self.min_residency_s < 0:
            raise CacheError("min_residency_s must be non-negative")


class CacheManager:
    """Holds the built structures and enforces the eviction policies."""

    def __init__(self, config: CacheConfig = CacheConfig()) -> None:
        self._config = config
        self._entries: Dict[str, CacheEntry] = {}
        self._lru: LruTracker[str] = LruTracker()
        self._evictions: List[EvictionRecord] = []
        self._peak_disk_used_bytes = 0
        self._version = 0
        # Earliest simulated time at which any entry could fail the idle
        # check; lets evict_failed_structures skip the scan entirely when
        # nothing can possibly have expired yet.
        self._failure_horizon: Optional[float] = None
        # Observability sink (duck-typed TraceRecorder); None = disabled.
        self._trace = None

    def attach_trace(self, recorder) -> None:
        """Attach a read-only trace recorder (admit/evict counters)."""
        self._trace = recorder

    # -- introspection ------------------------------------------------------------

    @property
    def config(self) -> CacheConfig:
        """The cache configuration."""
        return self._config

    @property
    def version(self) -> int:
        """Counter bumped whenever the set of built structures changes.

        Lets callers memoize derived views (e.g. the cached-column key
        set the build-cost model consults) without rescanning the cache
        on every query.
        """
        return self._version

    @property
    def built_keys(self) -> Set[str]:
        """Keys of every structure currently built."""
        return set(self._entries)

    @property
    def entries(self) -> Tuple[CacheEntry, ...]:
        """All current entries (stable order: insertion order)."""
        return tuple(self._entries.values())

    @property
    def evictions(self) -> Tuple[EvictionRecord, ...]:
        """Every eviction that has happened so far."""
        return tuple(self._evictions)

    @property
    def disk_used_bytes(self) -> int:
        """Total disk footprint of the built structures."""
        return sum(entry.size_bytes for entry in self._entries.values())

    @property
    def peak_disk_used_bytes(self) -> int:
        """Largest disk footprint the cache ever reached.

        Scaling runs compare this across execution modes: a replicated
        cache peaks at the full working set on every worker, a partitioned
        one only at its owned slice.
        """
        return self._peak_disk_used_bytes

    def contains(self, key: str) -> bool:
        """Whether a structure with the given key is built."""
        return key in self._entries

    def entry(self, key: str) -> CacheEntry:
        """The entry for ``key`` or raise :class:`CacheError`."""
        try:
            return self._entries[key]
        except KeyError:
            raise CacheError(f"structure not in cache: {key!r}") from None

    def entries_of_kind(self, kind: StructureKind) -> List[CacheEntry]:
        """All entries whose structure is of the given kind."""
        return [entry for entry in self._entries.values()
                if entry.structure.kind is kind]

    def maintenance_rate_total(self) -> float:
        """Combined $ per second maintenance rate of everything built."""
        return sum(entry.maintenance_rate for entry in self._entries.values())

    # -- admission ------------------------------------------------------------------

    def admit(self, structure: CacheStructure, size_bytes: int, build_cost: float,
              maintenance_rate: float, now: float) -> List[EvictionRecord]:
        """Build a structure, evicting LRU entries if a capacity budget requires it.

        Returns the eviction records of any structures removed to make room.

        Raises:
            CacheError: if the structure is already built.
            InsufficientSpaceError: if the structure alone exceeds the
                capacity budget.
        """
        if structure.key in self._entries:
            raise CacheError(f"structure already in cache: {structure.key!r}")
        evicted: List[EvictionRecord] = []
        capacity = self._config.capacity_bytes
        if capacity is not None:
            if size_bytes > capacity:
                raise InsufficientSpaceError(
                    f"{structure.key} needs {size_bytes} bytes but the cache "
                    f"budget is {capacity} bytes"
                )
            evicted = self._evict_to_fit(size_bytes, now)
        entry = CacheEntry(
            structure=structure,
            size_bytes=size_bytes,
            build_cost=build_cost,
            maintenance_rate=maintenance_rate,
            built_at=now,
        )
        self._entries[structure.key] = entry
        self._lru.touch(structure.key)
        self._version += 1
        self._failure_horizon = None
        self._peak_disk_used_bytes = max(self._peak_disk_used_bytes,
                                         self.disk_used_bytes)
        if self._trace is not None:
            self._trace.count("cache:admit")
        return evicted

    # -- usage and billing --------------------------------------------------------------

    def record_usage(self, keys: Iterable[str], now: float) -> None:
        """Mark the given structures as used by a selected plan at time ``now``."""
        for key in keys:
            entry = self.entry(key)
            entry.last_used_at = max(entry.last_used_at, now)
            entry.queries_served += 1
            self._lru.touch(key)

    def bill_maintenance(self, keys: Iterable[str], now: float) -> Dict[str, float]:
        """Bill the accrued maintenance of the given structures up to ``now``.

        Footnote 3: each newly selected plan pays the maintenance accumulated
        since the previous plan that paid. Returns the amount billed per key.
        """
        billed: Dict[str, float] = {}
        for key in keys:
            entry = self.entry(key)
            amount = entry.accrued_maintenance(now)
            entry.last_billed_at = now
            entry.maintenance_billed += amount
            billed[key] = amount
        return billed

    def record_amortized_recovery(self, key: str, amount: float) -> None:
        """Record that ``amount`` of a structure's build cost was recovered."""
        if amount < 0:
            raise CacheError(f"amount must be non-negative, got {amount}")
        self.entry(key).amortized_recovered += amount

    def accrued_maintenance(self, now: float) -> Dict[str, float]:
        """Unbilled maintenance of every structure up to ``now``."""
        return {key: entry.accrued_maintenance(now)
                for key, entry in self._entries.items()}

    # -- eviction ---------------------------------------------------------------------

    def evict(self, key: str, now: float, reason: str = "explicit") -> EvictionRecord:
        """Remove a structure from the cache and record why."""
        entry = self.entry(key)
        record = EvictionRecord(
            key=key,
            evicted_at=now,
            reason=reason,
            unpaid_maintenance=entry.accrued_maintenance(now),
            unrecovered_build_cost=entry.unrecovered_build_cost(),
            queries_served=entry.queries_served,
        )
        del self._entries[key]
        self._lru.discard(key)
        self._version += 1
        self._evictions.append(record)
        if self._trace is not None:
            self._trace.count(f"cache:evict_{reason}")
        return record

    def evict_failed_structures(self, now: float) -> List[EvictionRecord]:
        """Apply the structure-failure rule of footnote 3.

        A structure fails once no selected plan has used it for more than
        ``max_idle_s`` of simulated time (and it has been resident for at
        least ``min_residency_s``): its maintenance has been accruing with
        nobody paying for it, so the cloud stops keeping it.
        """
        config = self._config
        if config.max_idle_s is None:
            return []
        # The horizon is a lower bound on the first time any entry can
        # fail: usage and eviction only push failure times later, and
        # adding an entry (admit, or a partition handoff's install_entry)
        # clears it, so skipping the scan before the horizon cannot
        # change which structures fail or when.
        if self._failure_horizon is not None and now < self._failure_horizon:
            return []
        failed: List[EvictionRecord] = []
        horizon = float("inf")
        for key in list(self._entries):
            entry = self._entries[key]
            limit = config.max_idle_s
            if entry.structure.kind is StructureKind.COLUMN:
                limit *= config.column_idle_multiplier
            if now - entry.built_at < config.min_residency_s:
                horizon = min(horizon,
                              max(entry.built_at + config.min_residency_s,
                                  entry.last_used_at + limit))
                continue
            if entry.idle_time(now) > limit:
                failed.append(self.evict(key, now, reason="idle_failure"))
            else:
                horizon = min(horizon, entry.last_used_at + limit)
        self._failure_horizon = horizon
        return failed

    def _evict_to_fit(self, incoming_bytes: int, now: float) -> List[EvictionRecord]:
        """LRU-evict until ``incoming_bytes`` fits in the capacity budget."""
        capacity = self._config.capacity_bytes
        assert capacity is not None
        evicted: List[EvictionRecord] = []
        while self.disk_used_bytes + incoming_bytes > capacity:
            victim = self._lru.least_recently_used()
            if victim is None:
                raise InsufficientSpaceError(
                    f"cannot free {incoming_bytes} bytes: cache is empty"
                )
            evicted.append(self.evict(victim, now, reason="capacity_lru"))
        return evicted
