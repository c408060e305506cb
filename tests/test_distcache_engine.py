"""Tests for the partitioned economy engine (remote pricing, owned-only
investment, regret forwarding)."""

import pytest

from repro.cache.manager import CacheConfig
from repro.distcache import (
    CrossShardDirectory,
    PartitionedCacheManager,
    PartitionedEconomyEngine,
    RemoteAccessModel,
    StructurePartitioner,
)
from repro.economy.engine import EconomyConfig
from repro.errors import DistCacheError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.planner.plan import required_columns_for
from repro.structures.cached_column import CachedColumn
from repro.structures.cached_index import CachedIndex

from scalar_oracle import price_plans, scalar_plan


@pytest.fixture
def partitioner():
    return StructurePartitioner(partition_count=2)


def make_engine(execution_model, structure_costs, partitioner, index=0,
                remote=RemoteAccessModel(), candidate_indexes=(),
                enumerator_config=EnumeratorConfig()):
    cache = PartitionedCacheManager(
        CacheConfig(), partitioner=partitioner, partition_index=index)
    return PartitionedEconomyEngine(
        enumerator=PlanEnumerator(execution_model,
                                  candidate_indexes=candidate_indexes,
                                  config=enumerator_config),
        structure_costs=structure_costs,
        cache=cache,
        config=EconomyConfig(initial_credit=100.0),
        remote=remote,
    )


def assert_plans_like_oracle(engine, query, now=0.0):
    """The engine's skyline and budget equal the scalar oracle's."""
    skyline, budget = engine._plan(query, now)
    oracle_skyline, oracle_budget = scalar_plan(engine, query, now)
    assert skyline == oracle_skyline
    assert vars(budget) == vars(oracle_budget)


def split_columns(query, partitioner, index):
    """A query's required columns, split into (owned, foreign) for ``index``."""
    owned, foreign = [], []
    for column in required_columns_for(query):
        (owned if partitioner.owns(index, column.key) else foreign).append(
            column)
    return owned, foreign


class TestRemoteAccessModel:
    def test_surcharge_scales_with_bytes(self):
        model = RemoteAccessModel(transfer_fraction=0.5, dollars_per_gb=1.0,
                                  seconds_per_gb=2.0, rtt_s=0.25)
        dollars, seconds, shipped = model.surcharge(2 * 1024 ** 3)
        assert shipped == 1024 ** 3
        assert dollars == pytest.approx(1.0)
        assert seconds == pytest.approx(0.25 + 2.0)

    def test_zero_bytes_still_pays_rtt(self):
        dollars, seconds, shipped = RemoteAccessModel().surcharge(0)
        assert dollars == 0.0
        assert shipped == 0.0
        assert seconds == RemoteAccessModel().rtt_s

    def test_invalid_rates_rejected(self):
        with pytest.raises(DistCacheError):
            RemoteAccessModel(transfer_fraction=1.5)
        with pytest.raises(DistCacheError):
            RemoteAccessModel(rtt_s=-1.0)

    def test_requires_partitioned_cache(self, execution_model,
                                        structure_costs):
        from repro.cache.manager import CacheManager
        with pytest.raises(DistCacheError):
            PartitionedEconomyEngine(
                enumerator=PlanEnumerator(execution_model),
                structure_costs=structure_costs,
                cache=CacheManager(),
            )


class TestRemoteAwarePricing:
    def test_directory_turns_possible_into_existing(
            self, execution_model, structure_costs, partitioner,
            sample_query):
        engine = make_engine(execution_model, structure_costs, partitioner)
        query = sample_query("q6_forecast_revenue")
        owned, foreign = split_columns(query, partitioner, 0)
        assert owned and foreign, "template must straddle both partitions"
        schema = structure_costs.schema
        for column in owned:
            engine.cache.admit(column, size_bytes=column.size_bytes(schema),
                               build_cost=1.0, maintenance_rate=0.0, now=0.0)

        scan_before = next(
            plan for plan in price_plans(engine, query, now=0.0)
            if plan.plan.kind.name == "CACHE_COLUMN_SCAN"
            and plan.plan.node_count == 1)
        assert not scan_before.is_existing
        assert {s.key for s in scan_before.new_structures} == {
            c.key for c in foreign}

        directory = CrossShardDirectory.publish(
            {1: [(c.key, c.size_bytes(schema)) for c in foreign]},
            partitioner, version=1)
        engine.partitioned_cache.set_directory(directory)
        scan_after = next(
            plan for plan in price_plans(engine, query, now=0.0)
            if plan.plan.kind.name == "CACHE_COLUMN_SCAN"
            and plan.plan.node_count == 1)
        assert scan_after.is_existing
        # The remote accesses are visible in the plan's execution estimate:
        # more network traffic, more dollars, more latency than the
        # directory-less pricing of the same plan.
        assert (scan_after.plan.execution.network_bytes
                > scan_before.plan.execution.network_bytes)
        assert (scan_after.plan.execution.network_dollars
                > scan_before.plan.execution.network_dollars)
        assert (scan_after.response_time_s
                > scan_before.response_time_s - 1e-12)
        # No from-scratch amortisation for remote structures.
        assert all(key not in scan_after.amortized_by_structure
                   for key in (c.key for c in foreign))
        # The engine's planner prices the same plans to the same floats.
        assert_plans_like_oracle(engine, query)

    def test_remote_rows_count_as_existing_for_the_budget(
            self, execution_model, structure_costs, sample_query):
        # Without a back-end plan the budget is quoted against the
        # cheapest existing plan. Everything lives on partition 1, so only
        # the directory makes any row existing — and the remote index
        # plan, not the first row, is the cheapest.
        query = sample_query("q6_forecast_revenue")
        index = CachedIndex("lineitem", ("l_shipdate",))
        remote = list(required_columns_for(query)) + [index]
        partitioner = StructurePartitioner(partition_count=2).with_overrides(
            {structure.key: 1 for structure in remote})
        engine = make_engine(
            execution_model, structure_costs, partitioner,
            candidate_indexes=(index,),
            enumerator_config=EnumeratorConfig(allow_backend_plan=False,
                                               max_extra_nodes=0))
        schema = structure_costs.schema
        engine.partitioned_cache.set_directory(CrossShardDirectory.publish(
            {1: [(s.key, s.size_bytes(schema)) for s in remote]},
            partitioner, version=1))
        priced = price_plans(engine, query, now=0.0)
        assert all(plan.is_existing for plan in priced)
        assert priced[1].price < priced[0].price
        assert_plans_like_oracle(engine, query)

    def test_single_partition_pricing_untouched(
            self, execution_model, structure_costs, sample_query):
        solo = StructurePartitioner(partition_count=1)
        engine = make_engine(execution_model, structure_costs, solo)
        query = sample_query("q6_forecast_revenue")
        priced = price_plans(engine, query, now=0.0)
        assert all(plan.plan.execution.network_dollars >= 0 for plan in priced)
        # The directory is empty, so every plan's missing set is exactly
        # its required structures — the base engine's classification.
        scan = next(plan for plan in priced
                    if plan.plan.kind.name == "CACHE_COLUMN_SCAN"
                    and plan.plan.node_count == 1)
        assert {s.key for s in scan.new_structures} == {
            c.key for c in required_columns_for(query)}
        assert_plans_like_oracle(engine, query)


class TestOwnedOnlyInvestment:
    def test_foreign_structure_never_built(
            self, execution_model, structure_costs, partitioner,
            sample_query):
        engine = make_engine(execution_model, structure_costs, partitioner)
        query = sample_query("q6_forecast_revenue")
        _, foreign = split_columns(query, partitioner, 0)
        builds = engine._build_structure(foreign[0], query_id=0, now=0.0)
        assert builds == []
        assert not engine.cache.contains(foreign[0].key)

    def test_owned_column_builds(self, execution_model, structure_costs,
                                 partitioner, sample_query):
        engine = make_engine(execution_model, structure_costs, partitioner)
        query = sample_query("q6_forecast_revenue")
        owned, _ = split_columns(query, partitioner, 0)
        builds = engine._build_structure(owned[0], query_id=0, now=0.0)
        assert [build.key for build in builds] == [owned[0].key]

    def test_index_with_unreachable_column_aborts(
            self, execution_model, structure_costs):
        partitioner = StructurePartitioner(partition_count=2)
        # Find an index owned by partition p whose key column is owned by
        # the other partition and not advertised anywhere.
        for i in range(5_000):
            index = CachedIndex("lineitem", (f"c{i}",))
            column = CachedColumn("lineitem", f"c{i}")
            owner = partitioner.partition_of(index.key)
            if partitioner.partition_of(column.key) != owner:
                break
        else:
            raise AssertionError("no split index/column pair found")
        engine = make_engine(execution_model, structure_costs, partitioner,
                             index=owner)
        builds = engine._build_structure(index, query_id=0, now=0.0)
        assert builds == []
        assert not engine.cache.contains(index.key)


class TestRegretForwarding:
    def _drained_items(self, execution_model, structure_costs, partitioner,
                       small_workload, index=0):
        """Run enough real workload through one partition to owe regret."""
        engine = make_engine(execution_model, structure_costs, partitioner,
                             index=index)
        for query in small_workload[:20]:
            engine.process_query(query)
        return engine, engine.drain_foreign_regret()

    def test_foreign_regret_drains_exactly_once(
            self, execution_model, structure_costs, partitioner,
            small_workload):
        engine, drained = self._drained_items(
            execution_model, structure_costs, partitioner, small_workload)
        assert drained, "a mixed workload must owe foreign regret"
        assert all(not partitioner.owns(0, structure.key)
                   for structure, _ in drained)
        assert all(amount > 0 for _, amount in drained)
        assert engine.drain_foreign_regret() == ()

    def test_absorb_credits_owned_structures(
            self, execution_model, structure_costs, partitioner,
            small_workload):
        _, items = self._drained_items(
            execution_model, structure_costs, partitioner, small_workload)
        receiver = make_engine(execution_model, structure_costs, partitioner,
                               index=1)
        receiver.absorb_forwarded_regret(items)
        assert receiver.forwarded_regret_received == pytest.approx(
            sum(amount for _, amount in items))
        for structure, _ in items:
            assert receiver.regret_tracker.value(structure.key) > 0

    def test_absorb_rejects_misrouted_regret(
            self, execution_model, structure_costs, partitioner,
            small_workload):
        sender, items = self._drained_items(
            execution_model, structure_costs, partitioner, small_workload)
        with pytest.raises(DistCacheError, match="does not own"):
            sender.absorb_forwarded_regret(items)
