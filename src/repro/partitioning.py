"""Stable content-hash partitioning of string keys.

:mod:`repro.distcache` partitions the *cache and provider economy* by
hashing each structure key onto a fixed number of partitions
(``structure key -> cache partition``). The mapping must be a **stable**
content hash, independent of process, platform, interpreter hash
randomisation, and insertion order; this module is that one
implementation.

BLAKE2b (stdlib, keyed to nothing) is used rather than Python's built-in
``hash`` precisely because the built-in is salted per process: a salted
hash would partition differently in every worker, breaking the ownership
disjointness that exact merges and directory consistency rely on.

The hash is the *fallback*, not necessarily the last word: the distcache
layer's :class:`~repro.distcache.partition.StructurePartitioner` consults
its ownership-override table (populated by adaptive-placement handoffs,
:mod:`repro.distcache.placement`) before falling back to
:func:`partition_index`.

Example:
    >>> stable_key_hash("column:lineitem.l_quantity") % 4 in range(4)
    True
    >>> partition_index("t00042", 8) == partition_index("t00042", 8)
    True
    >>> partition_index("anything", 1)
    0
"""

from __future__ import annotations

import hashlib

from repro.errors import PartitioningError

#: Digest width of the partition hash; 8 bytes keeps the modulo bias
#: negligible for any practical partition count.
_DIGEST_SIZE = 8


def stable_key_hash(key: str) -> int:
    """A process-independent 64-bit hash of a string key.

    Args:
        key: the (non-empty) key to hash.

    Returns:
        An unsigned 64-bit integer, identical in every process on every
        platform.

    Example:
        >>> stable_key_hash("alice") == stable_key_hash("alice")
        True
        >>> stable_key_hash("alice") != stable_key_hash("bob")
        True
        >>> stable_key_hash("")
        Traceback (most recent call last):
            ...
        repro.errors.PartitioningError: key must not be empty
    """
    if not key:
        raise PartitioningError("key must not be empty")
    digest = hashlib.blake2b(key.encode("utf-8"),
                             digest_size=_DIGEST_SIZE).digest()
    return int.from_bytes(digest, "big")


def partition_index(key: str, partition_count: int) -> int:
    """The partition that owns ``key`` out of ``partition_count`` partitions.

    This is the one formula — ``stable_key_hash(key) % count`` — every
    partitioner calls rather than re-deriving it, so they cannot drift.

    Args:
        key: the (non-empty) key to place.
        partition_count: number of partitions; any count >= 1 is valid.

    Returns:
        The owning partition, in ``[0, partition_count)``.

    Example:
        >>> partition_index("t00042", 4) in range(4)
        True
        >>> partition_index("t00042", 1)
        0
        >>> partition_index("t00042", 0)
        Traceback (most recent call last):
            ...
        repro.errors.PartitioningError: partition_count must be >= 1, got 0
    """
    if partition_count < 1:
        raise PartitioningError(
            f"partition_count must be >= 1, got {partition_count}"
        )
    return stable_key_hash(key) % partition_count
