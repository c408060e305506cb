"""Property-based parity sweep: the engine's planner equals the scalar oracle.

Hypothesis draws workload shapes (template mix via seed, batch sizes,
inter-arrival times), enumerator configurations, and settlement grids;
for each draw the engine's outcome stream, account ledger, and regret
totals must equal those of the scalar oracle (``scalar_oracle.py``) —
``==`` on floats, no tolerances. Separate properties cover whole
population cells and the cache-partitioned execution mode end to end.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.manager import CacheConfig, CacheManager
from repro.economy.engine import EconomyEngine
from repro.errors import PlanningError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.structures.cached_index import CachedIndex
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.grammar import InvalidationShock

from scalar_oracle import ScalarOracleEngine, oracle_planning

CANDIDATES = (
    CachedIndex("lineitem", ("l_shipdate",)),
    CachedIndex("lineitem", ("l_shipmode",)),
    CachedIndex("lineitem", ("l_quantity", "l_shipmode")),
    CachedIndex("lineitem", ("l_orderkey",)),
)

enumerator_configs = st.builds(
    EnumeratorConfig,
    allow_index_plans=st.booleans(),
    max_extra_nodes=st.integers(min_value=0, max_value=3),
    allow_backend_plan=st.booleans(),
    max_candidate_indexes_per_query=st.integers(min_value=1, max_value=4),
)


def make_pair(execution_model, structure_costs, enum_config):
    """An oracle engine and an engine over identical components."""

    def make(engine_class):
        return engine_class(
            enumerator=PlanEnumerator(execution_model,
                                      candidate_indexes=CANDIDATES,
                                      config=enum_config),
            structure_costs=structure_costs,
            cache=CacheManager(CacheConfig()),
        )

    return make(ScalarOracleEngine), make(EconomyEngine)


def process_both(oracle, engine, query):
    """Process one query on both engines and assert identical results.

    Some drawn configurations legitimately fail (e.g. no backend plan
    over an empty cache leaves nothing existing to negotiate); parity
    then means both fail identically.
    """
    outcome = error = None
    try:
        outcome = oracle.process_query(query)
    except PlanningError as exc:
        error = str(exc)
    try:
        engine_outcome = engine.process_query(query)
    except PlanningError as exc:
        assert error == str(exc)
    else:
        assert error is None
        assert outcome == engine_outcome, (
            f"outcome diverged at query {query.query_id}"
        )


def assert_books_equal(oracle, engine):
    assert oracle.account.transactions == engine.account.transactions
    assert oracle.regret_tracker.ranked() == engine.regret_tracker.ranked()
    assert oracle.cache.built_keys == engine.cache.built_keys


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    query_count=st.integers(min_value=1, max_value=60),
    interarrival_s=st.sampled_from([0.5, 1.0, 5.0, 30.0]),
    enum_config=enumerator_configs,
    slice_size=st.sampled_from([None, 7, 25]),
)
def test_engine_stream_ledger_and_regret_bitwise_equal(
        execution_model, structure_costs, seed, query_count, interarrival_s,
        enum_config, slice_size):
    queries = WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=interarrival_s, seed=seed,
    )).generate()
    oracle, engine = make_pair(execution_model, structure_costs, enum_config)
    # Whole, or in slices as a run's lookahead refills hand them over.
    step = slice_size or len(queries)
    for offset in range(0, len(queries), step):
        engine.prime_queries(queries[offset:offset + step])
    for query in queries:
        process_both(oracle, engine, query)
    assert_books_equal(oracle, engine)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    query_count=st.integers(min_value=4, max_value=60),
    invalidate_after=st.integers(min_value=1, max_value=59),
    predicate=st.sampled_from(["", "index", "lineitem"]),
    enum_config=enumerator_configs,
)
def test_mid_run_invalidation_stays_bitwise_equal(
        execution_model, structure_costs, seed, query_count,
        invalidate_after, predicate, enum_config):
    """A mid-run invalidation (generation bump, memo drop, re-pricing)
    must leave the engine bitwise equal to the oracle."""
    queries = WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=2.0, seed=seed,
    )).generate()
    cut = min(invalidate_after, query_count - 1)
    oracle, engine = make_pair(execution_model, structure_costs, enum_config)
    engine.prime_queries(queries)
    for index, query in enumerate(queries):
        if index == cut:
            now = query.arrival_time
            oracle_records = oracle.invalidate_structures(predicate, now)
            engine_records = engine.invalidate_structures(predicate, now)
            assert ([r.key for r in oracle_records]
                    == [r.key for r in engine_records])
        process_both(oracle, engine, query)
    assert_books_equal(oracle, engine)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=255))
def test_tenant_cells_bitwise_equal(seed):
    from repro.experiments.tenants import (
        TenantExperimentConfig,
        run_tenant_cell,
    )

    config = TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=12, query_count=40,
        interarrival_s=1.0, seed=seed, settlement_period_s=15.0)

    def cell():
        return run_tenant_cell(config)

    with oracle_planning() as calls:
        oracle = cell()
    assert calls
    engine = cell()
    assert oracle.summary == engine.summary
    assert oracle.tenants == engine.tenants
    assert oracle.wallet_credit == engine.wallet_credit


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=255),
    partitions=st.integers(min_value=2, max_value=3),
    placement=st.sampled_from(["hash", "adaptive"]),
    invalidate_at=st.sampled_from([None, 0.0, 0.5]),
)
def test_partitioned_cells_bitwise_equal(seed, partitions, placement,
                                         invalidate_at):
    from repro.distcache import run_partitioned_cell
    from repro.experiments.tenants import TenantExperimentConfig

    shocks = (() if invalidate_at is None
              else (InvalidationShock(at_fraction=invalidate_at,
                                      predicate=""),))
    config = TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=12, query_count=40,
        interarrival_s=1.0, seed=seed, settlement_period_s=15.0,
        shocks=shocks)

    def cell():
        return run_partitioned_cell(config, partitions=partitions,
                                    compare_baseline=False,
                                    placement=placement,
                                    handoff_threshold=0.0)

    with oracle_planning() as calls:
        oracle = cell()
    assert calls
    engine = cell()
    assert oracle.cell.summary == engine.cell.summary
    assert oracle.cell.tenants == engine.cell.tenants
    assert oracle.cell.wallet_credit == engine.cell.wallet_credit
    assert oracle.checkpoints == engine.checkpoints
    assert oracle.partitions == engine.partitions
    assert oracle.handoff_count == engine.handoff_count
