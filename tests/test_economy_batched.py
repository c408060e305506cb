"""Engine-level tests of the batched planner.

The planner's contract is bit-for-bit equality with the scalar oracle
(``scalar_oracle.py``): same outcomes, same ledger, same regret, whether
a query was primed into a vectorized window or scored on its own. These
tests drive the engine directly; the property-based sweep lives in
``test_batched_parity_property.py``.
"""

from dataclasses import replace

import pytest

from repro.cache.manager import CacheConfig, CacheManager
from repro.economy.batch import BatchScheduler
from repro.economy.engine import EconomyConfig, EconomyEngine
from repro.errors import PlanningError
from repro.experiments import ExperimentProfile
from repro.experiments.tenants import TenantExperimentConfig
from repro.planner.enumerator import PlanEnumerator
from repro.structures.cached_index import CachedIndex
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

from scalar_oracle import ScalarOracleEngine

CANDIDATES = (
    CachedIndex("lineitem", ("l_shipdate",)),
    CachedIndex("lineitem", ("l_shipmode",)),
    CachedIndex("lineitem", ("l_quantity", "l_shipmode")),
)


def make_engine(execution_model, structure_costs,
                engine_class=EconomyEngine):
    enumerator = PlanEnumerator(execution_model, candidate_indexes=CANDIDATES)
    return engine_class(
        enumerator=enumerator,
        structure_costs=structure_costs,
        cache=CacheManager(CacheConfig()),
    )


def make_oracle(execution_model, structure_costs):
    return make_engine(execution_model, structure_costs, ScalarOracleEngine)


@pytest.fixture
def single_evaluations(monkeypatch):
    """Ids of the queries the scheduler scores as one-query blocks."""
    evaluated = []
    evaluate = BatchScheduler._evaluate_single

    def counted(scheduler, query):
        evaluated.append(query.query_id)
        return evaluate(scheduler, query)

    monkeypatch.setattr(BatchScheduler, "_evaluate_single", counted)
    return evaluated


def workload(count=120, interarrival=5.0, seed=42):
    spec = WorkloadSpec(query_count=count, interarrival_s=interarrival,
                        seed=seed)
    return WorkloadGenerator(spec).generate()


class TestConfig:
    def test_planning_is_not_an_option(self):
        # One planner: no config object takes a planning mode any more.
        with pytest.raises(TypeError):
            EconomyConfig(planning="batched")
        with pytest.raises(TypeError):
            ExperimentProfile(name="p", planning="batched")
        with pytest.raises(TypeError):
            TenantExperimentConfig(planning="batched")


class TestOutcomeParity:
    def assert_books_equal(self, oracle, engine):
        assert oracle.account.transactions == engine.account.transactions
        assert oracle.account.credit == engine.account.credit
        assert (oracle.regret_tracker.ranked()
                == engine.regret_tracker.ranked())
        assert oracle.cache.built_keys == engine.cache.built_keys

    def test_batched_outcomes_bitwise_equal_scalar(self, execution_model,
                                                   structure_costs):
        queries = workload()
        oracle = make_oracle(execution_model, structure_costs)
        engine = make_engine(execution_model, structure_costs)
        engine.prime_queries(queries, settlement_period_s=50.0)
        for query in queries:
            a = oracle.process_query(query)
            b = engine.process_query(query)
            assert a == b, query.query_id
        self.assert_books_equal(oracle, engine)

    @pytest.mark.parametrize("primed", [0, 20])
    def test_unprimed_queries_are_batch_planned(self, execution_model,
                                                structure_costs,
                                                single_evaluations, primed):
        queries = workload(count=40)
        oracle = make_oracle(execution_model, structure_costs)
        engine = make_engine(execution_model, structure_costs)
        # Prime only a prefix; the rest are scored one query at a time,
        # with outcomes identical to the oracle's.
        if primed:
            engine.prime_queries(queries[:primed], settlement_period_s=None)
        for query in queries:
            assert oracle.process_query(query) == engine.process_query(query)
        assert single_evaluations == [query.query_id
                                      for query in queries[primed:]]
        self.assert_books_equal(oracle, engine)

    def test_repeated_queries_are_batch_planned(self, execution_model,
                                                structure_costs,
                                                single_evaluations):
        # A query id seen twice is scored on its own the second time; the
        # primed window around it stays intact.
        queries = workload(count=30)
        repeats = [replace(query, arrival_time=query.arrival_time + 0.5)
                   for query in queries[:10]]
        stream = []
        for index, query in enumerate(queries):
            stream.append(query)
            if index < 10:
                stream.append(repeats[index])
        oracle = make_oracle(execution_model, structure_costs)
        engine = make_engine(execution_model, structure_costs)
        engine.prime_queries(queries, settlement_period_s=None)
        for query in stream:
            assert oracle.process_query(query) == engine.process_query(query)
        assert single_evaluations == [query.query_id for query in repeats]
        assert engine._batch.pending_queries == 0
        self.assert_books_equal(oracle, engine)

    def test_plan_tables_populated_when_batched(self, execution_model,
                                                structure_costs):
        queries = workload(count=30)
        engine = make_engine(execution_model, structure_costs)
        engine.prime_queries(queries)
        for query in queries:
            engine.process_query(query)
        assert len(engine.plan_tables) > 0


class TestBatchScheduler:
    def make(self, execution_model):
        enumerator = PlanEnumerator(execution_model,
                                    candidate_indexes=CANDIDATES)
        return BatchScheduler(enumerator, execution_model)

    def test_each_query_handed_out_once(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=8)
        scheduler.prime(queries)
        assert scheduler.pending_queries == 8
        for query in queries:
            assert scheduler.view_for(query) is not None
        assert scheduler.pending_queries == 0
        # Asking again scores the query on its own, to the same figures.
        table, estimates, column = scheduler.view_for(queries[0])
        assert column == 0 and estimates.query_count == 1

    def test_settlement_period_splits_epochs(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=30, interarrival=5.0)
        scheduler.prime(queries, settlement_period_s=25.0)
        assert len(scheduler._epochs) > 1

    def test_drained_scheduler_holds_no_arrays(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=6)
        scheduler.prime(queries)
        for query in queries:
            scheduler.view_for(query)
        assert scheduler._blocks == {}
        assert scheduler._columns == {}

    def test_invalid_batch_size_rejected(self, execution_model):
        enumerator = PlanEnumerator(execution_model)
        with pytest.raises(ValueError):
            BatchScheduler(enumerator, execution_model, max_batch_size=0)

    def test_clear_forgets_priming(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=5)
        scheduler.prime(queries)
        scheduler.clear()
        assert scheduler.pending_queries == 0
        assert scheduler._blocks == {}
        assert scheduler.view_for(queries[0])[2] == 0

    def test_single_query_leaves_the_window_alone(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=8)
        scheduler.prime(queries[:4])
        scheduler.view_for(queries[0])
        blocks, remaining = dict(scheduler._blocks), scheduler._remaining
        table, estimates, column = scheduler.view_for(queries[6])
        assert scheduler._blocks == blocks
        assert scheduler._remaining == remaining
        assert scheduler.pending_queries == 3

    def test_extend_queues_behind_unconsumed_queries(
            self, execution_model, single_evaluations):
        scheduler = self.make(execution_model)
        queries = workload(count=8)
        scheduler.prime(queries[:4])
        scheduler.view_for(queries[0])
        scheduler.view_for(queries[1])
        blocks = dict(scheduler._blocks)
        scheduler.extend(queries[4:])
        # The evaluated window and its unconsumed queries are untouched.
        assert scheduler._blocks == blocks
        assert scheduler.pending_queries == 6
        for query in queries[2:]:
            scheduler.view_for(query)
        assert single_evaluations == []
        assert scheduler.pending_queries == 0
        assert scheduler._epochs == {}

    def test_extended_slices_score_as_one_window(
            self, execution_model, single_evaluations):
        # A streamed run extends one slice per refill; consecutive slices
        # are scored together, to the one-query figures.
        scheduler = self.make(execution_model)
        reference = self.make(execution_model)
        queries = workload(count=12)
        for query in queries:
            scheduler.extend([query])
        scheduler.view_for(queries[0])
        assert sum(block.estimates.query_count
                   for block in scheduler._blocks.values()) == 12
        for query in queries[1:]:
            table, estimates, column = scheduler.view_for(query)
            _, alone, _ = reference.view_for(query)
            assert estimates.times_for(column) == alone.times_for(0)
            assert estimates.execution_dollars_for(column) \
                == alone.execution_dollars_for(0)
        # Only the reference scheduler scored anything on its own.
        assert single_evaluations == [query.query_id
                                      for query in queries[1:]]

    def test_reused_template_name_with_another_shape_rejected(
            self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=8)
        first = queries[0]
        impostor = replace(queries[1], query_id=10_000,
                           template_name=first.template_name,
                           predicates=first.predicates + first.predicates)
        scheduler.view_for(first)
        with pytest.raises(PlanningError, match="different shape"):
            scheduler.view_for(impostor)
        scheduler.prime([first, impostor])
        with pytest.raises(PlanningError, match="different shape"):
            scheduler.view_for(first)
