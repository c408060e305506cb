"""Tests for the stable-hash partitioning helper.

The point of :mod:`repro.partitioning` is one process-independent hash
formula; the drift test pins that the structure partitioner actually
delegates to it.
"""

import pytest

from repro.distcache import StructurePartitioner
from repro.errors import PartitioningError
from repro.partitioning import partition_index, stable_key_hash


class TestStableKeyHash:
    def test_deterministic(self):
        assert stable_key_hash("alice") == stable_key_hash("alice")

    def test_spreads(self):
        hashes = {stable_key_hash(f"key{i}") for i in range(200)}
        assert len(hashes) == 200

    def test_is_64_bit(self):
        for key in ("a", "column:lineitem.l_quantity", "t00042"):
            assert 0 <= stable_key_hash(key) < 2 ** 64

    def test_known_value_is_pinned(self):
        """The mapping is part of the on-disk/merge contract: changing the
        hash silently would re-partition every existing run."""
        import hashlib
        expected = int.from_bytes(
            hashlib.blake2b(b"alice", digest_size=8).digest(), "big")
        assert stable_key_hash("alice") == expected

    def test_empty_key_rejected(self):
        with pytest.raises(PartitioningError):
            stable_key_hash("")

    def test_survives_process_boundary(self):
        # blake2b, not the salted builtin: a subprocess must agree.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        expected = stable_key_hash("t00042")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.partitioning import stable_key_hash;"
             "print(stable_key_hash('t00042'))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert int(out.stdout.strip()) == expected


class TestPartitionIndex:
    def test_in_range(self):
        for count in (1, 2, 3, 7, 64):
            assert 0 <= partition_index("some-key", count) < count

    def test_single_partition_owns_everything(self):
        assert partition_index("anything", 1) == 0

    def test_invalid_count_rejected(self):
        with pytest.raises(PartitioningError):
            partition_index("key", 0)

    def test_every_partition_reachable(self):
        count = 4
        seen = {partition_index(f"key{i}", count) for i in range(200)}
        assert seen == set(range(count))


class TestLayersCannotDrift:
    """The structure partitioner agrees with the formula, key by key."""

    def test_structure_partitioner_delegates(self):
        partitioner = StructurePartitioner(partition_count=5)
        for i in range(50):
            key = f"column:lineitem.c{i}"
            assert partitioner.partition_of(key) == partition_index(key, 5)
