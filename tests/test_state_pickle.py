"""Picklability audit of what crosses a ``--jobs`` process boundary.

``run_tenant_experiment`` ships each frozen cell config out to a
``ProcessPoolExecutor`` worker and the cell result back; the economy and
metrics state behind those results (registries, accounts, regret
trackers, collectors) must also round-trip through ``pickle`` so future
transports (checkpointing, remote workers) don't hit lambdas or local
classes hiding in state. These are regression tests for that contract.
"""

import pickle

from repro.economy.account import CloudAccount
from repro.economy.regret import RegretTracker
from repro.economy.tenancy import TenantProfile, TenantRegistry
from repro.economy.user_model import UserModel
from repro.experiments.tenants import TenantExperimentConfig, run_tenant_cell
from repro.policies.base import SchemeStep
from repro.simulator.metrics import MetricsCollector
from repro.structures.cached_column import CachedColumn


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestEconomyStatePickles:
    def test_cloud_account_with_ledger(self):
        account = CloudAccount(initial_credit=10.0)
        account.deposit(5.0, 1.0, CloudAccount.CATEGORY_QUERY_PAYMENT, note="q1")
        account.withdraw(2.0, 2.0, CloudAccount.CATEGORY_BUILD, note="col")
        clone = roundtrip(account)
        assert clone.credit == account.credit
        assert clone.transactions == account.transactions

    def test_regret_tracker_with_lru_pool(self):
        tracker = RegretTracker(pool_capacity=4)
        tracker.add(CachedColumn("lineitem", "l_quantity"), 2.5)
        tracker.add(CachedColumn("orders", "o_custkey"), 1.0)
        clone = roundtrip(tracker)
        assert clone.value("column:lineitem.l_quantity") == 2.5
        assert clone.tracked_keys() == tracker.tracked_keys()

    def test_tenant_registry_with_charges_and_regret(self):
        registry = TenantRegistry()
        registry.register_all([
            TenantProfile("alice", initial_credit=10.0,
                          user_model=UserModel(budget_factor=1.5)),
            TenantProfile("bob", initial_credit=5.0, budget_multiplier=2.0),
        ])
        registry.charge("alice", 4.0, now=1.0, note="q7")
        registry.record_regret("bob", [CachedColumn("orders", "o_custkey")],
                               3.0)
        clone = roundtrip(registry)
        assert clone.credit_by_tenant() == registry.credit_by_tenant()
        assert clone.total_charged() == registry.total_charged()
        assert clone.state("bob").profile.budget_multiplier == 2.0


class TestMetricsStatePickles:
    def test_collector_with_steps_and_maintenance(self):
        collector = MetricsCollector("econ-cheap")
        collector.record_step(SchemeStep(
            query_id=0, template_name="t", arrival_time_s=0.0,
            response_time_s=0.1, served_in_cache=True, plan_label="cache",
            execution_cpu_dollars=0.1, execution_io_dollars=0.1,
            execution_network_dollars=0.0, build_dollars=0.0,
            network_bytes=10.0, charge=1.0, profit=0.2,
            builds=0, evictions=0, eviction_losses=0.0,
            tenant_id="alice",
        ))
        collector.record_maintenance(0.5, 1.0)
        clone = roundtrip(collector)
        assert clone.steps == collector.steps
        assert clone.summary() == collector.summary()


class TestCellTransportPickles:
    def test_cell_config_and_result_roundtrip(self):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=6, query_count=20,
            interarrival_s=1.0, seed=1)
        assert roundtrip(config) == config
        result = run_tenant_cell(config)
        assert roundtrip(result) == result
