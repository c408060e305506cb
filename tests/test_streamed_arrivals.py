"""The million-tenant execution mode: generative profiles + streamed arrivals.

Every population cell runs on streamed arrivals over a generative tenant
registry. Pins the two contracts that path rests on:

* **fidelity** — streamed cells are byte-identical to
  the eager oracle (``tests/eager_oracle.py``: materialise the populated
  workload, register every profile up front, replay the list) over the
  same config, including when the lookahead-primed planning window
  straddles settlement barriers and shocks; and a
  :class:`GenerativeProfileSource` derives exactly the profile the eager
  ``populate()`` path mints for every ``(seed, tenant index)``, including
  churn replacements and SLA-tier rewrites (Hypothesis-swept);
* **boundedness** — full tenant states materialise lazily, drop at
  churn, and the streaming arrival source keeps only a lookahead window
  of the workload inside the kernel.
"""

import functools
import os
import subprocess
import sys
from unittest import mock

import pytest

import repro
from eager_oracle import run_eager_cell
from repro.economy.tenancy import (
    GenerativeTenantRegistry,
    TenantProfile,
    TenantRegistry,
)
from repro.economy.user_model import UserModel
from repro.errors import EconomyError, SimulationError, WorkloadError
from repro.experiments.tenants import (
    TenantExperimentConfig,
    build_population,
    run_tenant_cell,
    run_tenant_experiment,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.simulator import streaming
from repro.simulator.streaming import StreamingArrivalSource
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.grammar import TenantTier, apply_tenant_tiers
from repro.workload.population import (
    GenerativeProfileSource,
    PopulationSpec,
    TenantLifecycleMarker,
    TenantPopulation,
    tenant_id_for,
    tenant_index_of,
)
from repro.workload.query import Query

QUICK = dict(tenant_count=10, query_count=80, interarrival_s=5.0, seed=2,
             churn_period=25, churn_fraction=0.2,
             settlement_period_s=150.0)

TIERS = (
    TenantTier("basic", weight=3.0),
    TenantTier("gold", weight=1.0, budget_multiplier=1.8,
               credit_multiplier=2.0),
)


def _workload(query_count=80, seed=2, interarrival_s=5.0):
    return WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=interarrival_s, seed=seed))


def _rendered(cell):
    """Everything the CLI prints for a cell, plus the raw ledgers."""
    return (
        tenant_aggregate_table(cell),
        top_tenant_table(cell, limit=5),
        cell.summary,
        cell.tenants,
        cell.wallet_credit,
        cell.population_size,
        cell.churn_waves,
    )


class TestTenantIdScheme:
    def test_round_trip(self):
        for index in (0, 7, 99_999, 1_000_000):
            assert tenant_index_of(tenant_id_for(index)) == index

    def test_ad_hoc_ids_never_alias(self):
        for tenant_id in ("default", "alice", "t12", "t-0001", "txyz",
                          "t00001x", ""):
            assert tenant_index_of(tenant_id) is None


class TestGenerativeProfileEquivalence:
    """profile_for(i) == the i-th profile the eager path mints."""

    def _eager_profiles(self, spec, tiers=(), query_count=120):
        queries = _workload(query_count=query_count,
                            seed=spec.seed).generate()
        populated = TenantPopulation(spec).populate(queries)
        if tiers:
            populated = apply_tenant_tiers(populated, tiers, seed=spec.seed)
        return populated.profiles

    def test_matches_eager_including_churn_replacements(self):
        spec = PopulationSpec(tenant_count=8, budget_sigma=0.4,
                              churn_period=20, churn_fraction=0.25, seed=3)
        profiles = self._eager_profiles(spec)
        assert len(profiles) > spec.tenant_count  # churn minted replacements
        source = GenerativeProfileSource(spec=spec)
        for index, expected in enumerate(profiles):
            assert source.profile_for(index) == expected

    def test_matches_eager_under_tier_rewrites(self):
        spec = PopulationSpec(tenant_count=8, budget_sigma=0.3,
                              churn_period=30, churn_fraction=0.25, seed=5)
        profiles = self._eager_profiles(spec, tiers=TIERS)
        source = GenerativeProfileSource(spec=spec, tiers=TIERS)
        for index, expected in enumerate(profiles):
            assert source.profile_for(index) == expected

    def test_derivation_is_order_independent(self):
        # Tenant i's profile must not depend on which (or how many)
        # profiles were derived before it — the O(1) access contract.
        spec = PopulationSpec(tenant_count=4, budget_sigma=0.5, seed=9)
        source = GenerativeProfileSource(spec=spec, tiers=TIERS)
        backwards = [source.profile_for(i) for i in reversed(range(12))]
        forwards = [source.profile_for(i) for i in range(12)]
        assert list(reversed(backwards)) == forwards

    def test_profiles_are_static(self):
        source = GenerativeProfileSource(spec=PopulationSpec(tenant_count=4))
        assert source.profile_for(3).joined_at_s == 0.0

    def test_rejects_negative_index(self):
        source = GenerativeProfileSource(spec=PopulationSpec(tenant_count=4))
        with pytest.raises(WorkloadError):
            source.profile_for(-1)


class TestGenerativeProfileProperty:
    """Hypothesis sweep of the generative == eager profile identity."""

    hypothesis = pytest.importorskip("hypothesis")

    def test_swept_specs_match(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=20, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(
            seed=st.integers(min_value=0, max_value=50),
            tenant_count=st.integers(min_value=2, max_value=9),
            sigma=st.sampled_from((0.0, 0.3, 0.8)),
            churn=st.booleans(),
            tiered=st.booleans(),
        )
        def check(seed, tenant_count, sigma, churn, tiered):
            spec = PopulationSpec(
                tenant_count=tenant_count, budget_sigma=sigma, seed=seed,
                churn_period=15 if churn else 0, churn_fraction=0.3)
            tiers = TIERS if tiered else ()
            queries = _workload(query_count=60, seed=seed).generate()
            populated = TenantPopulation(spec).populate(queries)
            if tiers:
                populated = apply_tenant_tiers(populated, tiers, seed=seed)
            source = GenerativeProfileSource(spec=spec, tiers=tiers)
            for index, expected in enumerate(populated.profiles):
                assert source.profile_for(index) == expected
                assert source.initial_credit_for(index) \
                    == expected.initial_credit

        check()


class TestPopulationStream:
    def test_drain_equals_populate(self):
        spec = PopulationSpec(tenant_count=6, churn_period=20,
                              churn_fraction=0.25, seed=4)
        queries = _workload(query_count=100, seed=4).generate()
        populated = TenantPopulation(spec).populate(queries)

        stream = TenantPopulation(spec).stream(iter(queries))
        markers, streamed_queries = [], []
        for item in stream:
            if isinstance(item, TenantLifecycleMarker):
                markers.append(item)
            else:
                streamed_queries.append(item)
        assert tuple(streamed_queries) == populated.queries
        assert tuple(markers) == populated.lifecycle
        assert stream.tenants_minted == populated.tenant_count
        assert stream.churn_events == populated.churn_waves
        assert stream.queries_emitted == len(populated.queries)

    def test_chunked_draws_are_chunk_size_invariant(self):
        from repro.workload.population import PopulationStream

        spec = PopulationSpec(tenant_count=5, churn_period=17,
                              churn_fraction=0.3, seed=7)
        queries = _workload(query_count=90, seed=7).generate()
        baseline = list(PopulationStream(spec, iter(queries)))
        for chunk in (1, 3, 64, 10_000):
            again = list(PopulationStream(spec, iter(queries),
                                          chunk_size=chunk))
            assert again == baseline

    def test_stream_is_single_use(self):
        stream = TenantPopulation(PopulationSpec(tenant_count=3)).stream(
            iter(_workload(query_count=10).generate()))
        list(stream)
        with pytest.raises(WorkloadError):
            list(stream)

    def test_empty_workload_rejected(self):
        stream = TenantPopulation(PopulationSpec(tenant_count=3)).stream(
            iter(()))
        with pytest.raises(WorkloadError):
            list(stream)


class TestGenerativeTenantRegistry:
    SPEC = PopulationSpec(tenant_count=6, initial_credit=10.0,
                          budget_sigma=0.4, seed=11)

    def _registry(self):
        return GenerativeTenantRegistry(
            GenerativeProfileSource(spec=self.SPEC))

    def test_arrivals_mint_no_state(self):
        registry = self._registry()
        for index in range(4):
            registry.activate(tenant_id_for(index), now=0.0)
        assert registry.materialized_tenant_count() == 0
        assert registry.live_tenant_count() == 4
        assert registry.population_minted == 4
        assert registry.total_credit() == pytest.approx(40.0)

    def test_state_materialises_at_first_charge(self):
        registry = self._registry()
        registry.activate("t00000", now=0.0)
        registry.charge("t00000", 2.5, now=1.0)
        assert registry.materialized_tenant_count() == 1
        assert registry.total_charged() == pytest.approx(2.5)
        assert registry.state("t00000").account.credit \
            == pytest.approx(7.5)

    def test_churn_drops_state_and_keeps_balance(self):
        registry = self._registry()
        registry.activate("t00000", now=0.0)
        registry.charge("t00000", 2.5, now=1.0)
        departed = registry.deactivate("t00000", now=2.0)
        assert departed is not None and not departed.active
        assert registry.materialized_tenant_count() == 0
        assert registry.live_tenant_count() == 0
        # The balance survives the drop (archive of two floats).
        assert registry.credit_by_tenant()["t00000"] == pytest.approx(7.5)
        assert registry.total_credit() == pytest.approx(7.5)
        assert registry.total_charged() == pytest.approx(2.5)

    def test_rematerialization_is_exact_across_re_arrival(self):
        registry = self._registry()
        registry.activate("t00001", now=0.0)
        registry.charge("t00001", 3.25, now=1.0)
        before = registry.state("t00001").account.credit
        registry.deactivate("t00001", now=2.0)
        registry.activate("t00001", now=3.0)  # the tenant returns
        registry.charge("t00001", 1.0, now=4.0)
        state = registry.state("t00001")
        assert state.active
        assert state.account.credit == before - 1.0  # bitwise resume
        assert registry.total_charged() == pytest.approx(4.25)

    def test_never_charged_churn_needs_no_archive(self):
        registry = self._registry()
        registry.activate("t00002", now=0.0)
        registry.deactivate("t00002", now=1.0)
        assert registry.materialized_tenant_count() == 0
        # Rematerialisation is pure: the balance is simply the seed.
        source = GenerativeProfileSource(spec=self.SPEC)
        assert registry.credit_by_tenant()["t00002"] \
            == source.initial_credit_for(2)

    def test_population_ids_cannot_be_registered_explicitly(self):
        registry = self._registry()
        with pytest.raises(EconomyError):
            registry.register(TenantProfile("t00003", initial_credit=1.0))

    def test_ad_hoc_ids_use_the_eager_path(self):
        registry = self._registry()
        registry.register(TenantProfile("alice", initial_credit=5.0))
        registry.charge("alice", 1.0, now=0.0)
        assert registry.credit_by_tenant()["alice"] == pytest.approx(4.0)
        assert "alice" in registry

    def test_peak_materialized_tracks_high_water(self):
        registry = self._registry()
        for index in range(4):
            registry.activate(tenant_id_for(index), now=0.0)
            registry.charge(tenant_id_for(index), 1.0, now=0.5)
        registry.deactivate("t00000", now=1.0)
        registry.deactivate("t00001", now=1.0)
        assert registry.materialized_tenant_count() == 2
        assert registry.peak_materialized == 4

    def test_budget_matches_eager_registry_bitwise(self):
        source = GenerativeProfileSource(spec=self.SPEC)
        eager = TenantRegistry()
        generative = self._registry()
        model = UserModel()
        for index in range(6):
            tenant_id = tenant_id_for(index)
            eager.register(source.profile_for(index))
            generative.activate(tenant_id, now=0.0)
            query = _probe_query(tenant_id)
            expected = eager.budget_for(query, 10.0, 4.0, model)
            observed = generative.budget_for(query, 10.0, 4.0, model)
            assert type(observed) is type(expected)
            assert repr(observed) == repr(expected)


    def test_minting_formats_ids_only_for_ownership(self, monkeypatch):
        # Minting must not format an id per index (nothing asks for one),
        # and must leave len() and the wallets exactly what the eager
        # registry reports.
        from repro.economy import tenancy

        formatted = []

        def counting(index):
            formatted.append(index)
            return tenant_id_for(index)

        monkeypatch.setattr(tenancy, "tenant_id_for", counting)
        source = GenerativeProfileSource(spec=self.SPEC)
        registry = self._registry()
        registry.activate(tenant_id_for(39), now=0.0)  # mints 0..39 at once
        registry.charge(tenant_id_for(7), 1.5, now=1.0)
        assert formatted == []
        eager = TenantRegistry()
        eager.register_all(source.profile_for(i) for i in range(40))
        eager.charge(tenant_id_for(7), 1.5, now=1.0)
        assert len(registry) == len(eager) == 40
        assert registry.credit_by_tenant() == eager.credit_by_tenant()


def _probe_query(tenant_id: str) -> Query:
    return Query(query_id=0, template_name="t", table_name="lineitem",
                 predicates=(), projection_columns=("l_quantity",),
                 tenant_id=tenant_id)


class TestStreamingArrivalSource:
    def _stream(self, query_count=40):
        spec = PopulationSpec(tenant_count=4, seed=1)
        generator = _workload(query_count=query_count, seed=1)
        return TenantPopulation(spec).stream(generator.iter_queries())

    def test_lookahead_must_be_positive(self):
        with pytest.raises(SimulationError):
            StreamingArrivalSource(self._stream(), lookahead=0)

    def test_primes_only_once(self):
        from repro.simulator.kernel import SimulationKernel

        source = StreamingArrivalSource(self._stream(), lookahead=8)
        kernel = SimulationKernel()
        source.register(kernel)
        source.prime_window(kernel)
        with pytest.raises(SimulationError):
            source.prime_window(kernel)

    def test_prime_schedules_only_the_window(self):
        from repro.simulator.kernel import SimulationKernel

        source = StreamingArrivalSource(self._stream(query_count=40),
                                        lookahead=8)
        kernel = SimulationKernel()
        source.register(kernel)
        source.prime_window(kernel)
        assert source.events_emitted == 8

    def test_run_drains_the_whole_stream(self):
        from repro.simulator.kernel import SimulationKernel

        stream = self._stream(query_count=30)
        source = StreamingArrivalSource(stream, lookahead=4)
        kernel = SimulationKernel()
        source.register(kernel)
        source.prime_window(kernel)
        kernel.run()
        # 4 initial arrivals + 30 queries, all through a 4-item window.
        assert source.events_emitted == 34
        assert stream.queries_emitted == 30


class TestStreamedCellEquivalence:
    """The fidelity gate: streamed == the eager oracle, byte for byte."""

    def _config(self, **overrides):
        base = dict(QUICK)
        base.update(overrides)
        return TenantExperimentConfig(**base)

    def test_econ_cell_byte_identical(self):
        config = self._config(scheme="econ-cheap", budget_sigma=0.3)
        assert _rendered(run_tenant_cell(config)) \
            == _rendered(run_eager_cell(config))

    def test_bypass_cell_byte_identical(self):
        config = self._config(scheme="bypass")
        assert _rendered(run_tenant_cell(config)) \
            == _rendered(run_eager_cell(config))

    def test_shocked_tiered_cell_byte_identical(self):
        from repro.workload.grammar import parse_shock

        config = self._config(
            scheme="econ-cheap", budget_sigma=0.4, tenant_tiers=TIERS,
            shocks=(parse_shock("price@0.4:0.3:1.6"),))
        assert _rendered(run_tenant_cell(config)) \
            == _rendered(run_eager_cell(config))

    def test_streamed_queries_are_batch_planned(self, monkeypatch):
        # The lookahead window primes the planner: no arrival is scored on
        # its own, and the whole 80-query cell fits one vectorized window
        # per template — still to the eager oracle's figures.
        from repro.economy import batch

        single, blocks = [], []
        evaluate_single = batch.BatchScheduler._evaluate_single
        evaluate_table = batch.evaluate_plan_table

        def counted_single(scheduler, query):
            single.append(query.query_id)
            return evaluate_single(scheduler, query)

        def counted_table(table, queries, execution):
            blocks.append(len(queries))
            return evaluate_table(table, queries, execution)

        monkeypatch.setattr(batch.BatchScheduler, "_evaluate_single",
                            counted_single)
        monkeypatch.setattr(batch, "evaluate_plan_table", counted_table)
        config = self._config(scheme="econ-cheap")
        streamed = _rendered(run_tenant_cell(config))
        assert single == []
        assert sum(blocks) == QUICK["query_count"]
        templates = {query.template_name
                     for query in build_population(config).queries}
        assert len(blocks) == len(templates)
        assert streamed == _rendered(run_eager_cell(config))

    def test_unknown_arrival_mode_rejected(self):
        # There is one arrival path: the config has no arrival mode, and
        # the CLI no longer accepts --arrival-mode.
        with pytest.raises(TypeError):
            TenantExperimentConfig(scheme="econ-cheap",
                                   arrival_mode="streamed", **QUICK)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "tenants", "--n-tenants",
             "4", "--queries", "10", "--arrival-mode", "streamed"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            check=False)
        assert completed.returncode == 2
        assert b"unrecognized arguments" in completed.stderr


class TestStreamedCellProperty:
    hypothesis = pytest.importorskip("hypothesis")

    def test_swept_configs_byte_identical(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=12, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(
            scheme=st.sampled_from(("bypass", "econ-cheap")),
            tenant_count=st.integers(min_value=2, max_value=8),
            query_count=st.integers(min_value=10, max_value=50),
            seed=st.integers(min_value=0, max_value=6),
            churn=st.booleans(),
            settle=st.booleans(),
        )
        def check(scheme, tenant_count, query_count, seed, churn, settle):
            config = TenantExperimentConfig(
                scheme=scheme, tenant_count=tenant_count,
                query_count=query_count, seed=seed,
                churn_period=12 if churn else 0, churn_fraction=0.25,
                settlement_period_s=100.0 if settle else None)
            assert _rendered(run_tenant_cell(config)) \
                == _rendered(run_eager_cell(config))

        check()

    def test_primed_window_straddling_barrier_and_shock(self):
        """Windows primed from a small lookahead span a settlement barrier
        and an invalidation shock, and still match the eager oracle."""
        from hypothesis import HealthCheck, assume, given, settings
        from hypothesis import strategies as st

        from repro.economy import batch
        from repro.workload.grammar import parse_shock

        @settings(max_examples=12, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much])
        @given(
            lookahead=st.integers(min_value=10, max_value=16),
            query_count=st.integers(min_value=30, max_value=60),
            seed=st.integers(min_value=0, max_value=6),
            period=st.sampled_from((12.0, 25.0)),
            onset=st.integers(min_value=15, max_value=85),
            churn=st.booleans(),
        )
        def check(lookahead, query_count, seed, period, onset, churn):
            config = TenantExperimentConfig(
                scheme="econ-cheap", tenant_count=4,
                query_count=query_count, interarrival_s=5.0, seed=seed,
                churn_period=10 if churn else 0, churn_fraction=0.25,
                settlement_period_s=period,
                shocks=(parse_shock(f"invalidate@{onset / 100}"),))
            queries = build_population(config).queries
            first = queries[0].arrival_time
            span = queries[-1].arrival_time - first
            shock_s = first + (onset / 100) * span
            barriers = [first + period * k
                        for k in range(1, int(span // period) + 1)]

            windows = []
            evaluate_window = batch.BatchScheduler._evaluate_window

            def recorded(scheduler, start):
                evaluate_window(scheduler, start)
                ids = set(scheduler._columns)
                arrivals = [query.arrival_time for query in queries
                            if query.query_id in ids]
                windows.append((min(arrivals), max(arrivals)))

            source = functools.partial(StreamingArrivalSource,
                                       lookahead=lookahead)
            with mock.patch.object(streaming, "StreamingArrivalSource",
                                   source), \
                    mock.patch.object(batch.BatchScheduler,
                                      "_evaluate_window", recorded):
                streamed = _rendered(run_tenant_cell(config))

            def straddled(instant):
                return any(low < instant < high for low, high in windows)

            assume(straddled(shock_s)
                   and any(straddled(barrier) for barrier in barriers))
            assert len(windows) > 1  # later windows queued behind earlier
            assert streamed == _rendered(run_eager_cell(config))

        check()


class TestBoundedMaterialization:
    def test_registry_stays_bounded_under_churn(self, monkeypatch):
        """Resident states stay O(live tenants) while the population grows,
        in an unpartitioned cell and in every partition of a partitioned
        one (which never materialises or registers the population)."""
        from repro.distcache import DistCacheRunner
        from repro.experiments import tenants as tenants_module
        from repro.policies.economic import EconomicSchemeConfig
        from repro.simulator.simulation import (CloudSimulation,
                                                SimulationConfig)
        from repro.system import CloudSystem

        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=8, query_count=200,
            interarrival_s=5.0, seed=6, churn_period=20, churn_fraction=0.25)
        spec = config.population_spec()
        source = GenerativeProfileSource(spec=spec)
        generator = WorkloadGenerator(config.workload_spec())
        envelope = generator.arrival_envelope()
        stream = TenantPopulation(spec).stream(generator.iter_queries(),
                                               source=source)
        registry = GenerativeTenantRegistry(source)
        system = CloudSystem()
        scheme = system.scheme("econ-cheap",
                               economic_config=EconomicSchemeConfig(
                                   tenants=registry))
        simulation = CloudSimulation(scheme, SimulationConfig())
        simulation.run_streamed(stream, envelope)

        assert stream.tenants_minted > spec.tenant_count  # churn happened
        # Live tenants never exceed the concurrent population, and the
        # resident-state high-water mark stays pinned to it (one wave may
        # overlap while arrival/churn markers share an instant).
        wave = max(1, int(round(spec.churn_fraction * spec.tenant_count)))

        def assert_bounded(registry, minted):
            assert registry.live_tenant_count() == spec.tenant_count
            assert registry.peak_materialized <= spec.tenant_count + wave
            assert registry.peak_materialized < minted

        assert_bounded(registry, stream.tenants_minted)

        def materialised(*args, **kwargs):
            raise AssertionError("the partitioned cell must stream")

        monkeypatch.setattr(tenants_module, "build_population", materialised)
        monkeypatch.setattr(TenantRegistry, "register_all", materialised)
        built = []
        build_schemes = DistCacheRunner._build_schemes

        def recorded(runner, *args, **kwargs):
            schemes = build_schemes(runner, *args, **kwargs)
            built.extend(schemes)
            return schemes

        monkeypatch.setattr(DistCacheRunner, "_build_schemes", recorded)
        report = DistCacheRunner(2, compare_baseline=False).run_cell(config)
        assert report.cell.population_size == stream.tenants_minted
        assert len(built) == 2
        for scheme in built:
            assert_bounded(scheme.tenant_registry, stream.tenants_minted)


class TestStreamedGauges:
    def test_streamed_metrics_carry_memory_gauges(self):
        # Every cell samples live/materialised tenants at each barrier.
        # Peak RSS is not a sample gauge: the CLI records it in the run
        # manifest instead.
        from repro.obs.metrics import MetricsTimeseries

        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        metrics = MetricsTimeseries()
        run_tenant_experiment([config], metrics=metrics)
        samples = metrics.samples
        assert samples
        assert all("live_tenants" in sample for sample in samples)
        assert all("materialized_tenants" in sample for sample in samples)
        assert all("peak_rss_bytes" not in sample for sample in samples)

    def test_unsharded_metrics_stay_deterministic(self):
        # A cell samples live tenants (a pure simulation quantity) but
        # never the OS high-water mark, keeping its emission bitwise
        # reproducible run to run.
        from repro.obs.metrics import MetricsTimeseries

        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        first = MetricsTimeseries()
        run_tenant_cell(config, metrics=first)
        second = MetricsTimeseries()
        run_tenant_cell(config, metrics=second)
        assert first.jsonl_lines() == second.jsonl_lines()
        assert all("live_tenants" in sample for sample in first.samples)
        assert all("peak_rss_bytes" not in sample
                   for sample in first.samples)
