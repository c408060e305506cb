"""The metrics-purity gate: sampling never perturbs a run.

The metrics twin of ``test_obs_purity_property.py``: attaching a
:class:`MetricsTimeseries` (alone or teed with a trace recorder) to any
execution path leaves every rendered table, wallet ledger, and merged
report **byte-identical** to the unobserved run. Hypothesis sweeps drawn
cell shapes; a pinned integration case covers
``--cache-partitions 2 --placement adaptive``, which is too slow to
sweep per-example.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.tenants import (
    TenantExperimentConfig,
    run_tenant_cell,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs.metrics import MetricsTimeseries
from repro.obs.trace import TraceRecorder
from repro.workload.grammar import parse_shock

SCHEMES = ("bypass", "econ-cheap")
SHOCKS = (
    (),
    (parse_shock("invalidate@0.4"),),
    (parse_shock("price@0.3:0.3:1.5"), parse_shock("squeeze@0.5:0.2:0.6")),
)


def _rendered(cell):
    """Everything the CLI prints for one cell, plus the raw ledgers."""
    return (
        tenant_aggregate_table(cell),
        top_tenant_table(cell, limit=5),
        cell.summary,
        cell.tenants,
        cell.wallet_credit,
    )


cell_configs = st.builds(
    TenantExperimentConfig,
    scheme=st.sampled_from(SCHEMES),
    tenant_count=st.integers(min_value=2, max_value=6),
    query_count=st.integers(min_value=10, max_value=40),
    interarrival_s=st.sampled_from((5.0, 10.0)),
    seed=st.integers(min_value=0, max_value=5),
    settlement_period_s=st.sampled_from((None, 60.0)),
    shocks=st.sampled_from(SHOCKS),
)


class TestMetricsCellPurity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_metrics_cell_is_byte_identical(self, config):
        plain = run_tenant_cell(config)
        metrics = MetricsTimeseries()
        observed = run_tenant_cell(config, metrics=metrics)
        assert _rendered(observed) == _rendered(plain)
        # The collector actually observed the run.
        assert metrics.counter("event:QueryArrivalEvent") \
            >= config.query_count
        if config.settlement_period_s is not None:
            assert len(metrics) > 0

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_metrics_emission_is_deterministic(self, config):
        first = MetricsTimeseries()
        run_tenant_cell(config, metrics=first)
        second = MetricsTimeseries()
        run_tenant_cell(config, metrics=second)
        assert first.jsonl_lines() == second.jsonl_lines()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_teed_trace_plus_metrics_is_byte_identical(self, config):
        plain = run_tenant_cell(config)
        trace = TraceRecorder()
        metrics = MetricsTimeseries()
        observed = run_tenant_cell(config, trace=trace, metrics=metrics)
        assert _rendered(observed) == _rendered(plain)
        # Both sinks saw the same stream through the tee.
        assert trace.counter("event:QueryArrivalEvent") \
            == metrics.counter("event:QueryArrivalEvent")


class TestMetricsModesPurity:
    """Pinned integration cases for the scaling modes (slower, run once)."""

    CONFIG = dict(tenant_count=6, query_count=60, seed=3,
                  settlement_period_s=60.0)

    def test_partitioned_adaptive_metrics_run_is_byte_identical(self):
        from repro.distcache.runner import run_partitioned_experiment

        config = TenantExperimentConfig(scheme="econ-cheap", **self.CONFIG)
        plain = run_partitioned_experiment(
            [config], partitions=2, placement="adaptive",
            compare_baseline=False)
        metrics = MetricsTimeseries()
        observed = run_partitioned_experiment(
            [config], partitions=2, placement="adaptive",
            compare_baseline=False, metrics=metrics)
        assert _rendered(observed[0].cell) == _rendered(plain[0].cell)
        assert observed[0].checkpoints == plain[0].checkpoints
        assert observed[0].handoffs == plain[0].handoffs
        # Per-partition samples plus the runner's directory samples.
        sources = {s["source"] for s in metrics.samples}
        assert sources == {"partition0", "partition1", "run"}
        partition_samples = [s for s in metrics.samples
                             if s["source"] == "partition0"]
        assert all("remote_surcharge_dollars" in s
                   for s in partition_samples)
        runner_samples = [s for s in metrics.samples if s["source"] == "run"]
        assert all("directory_entries" in s for s in runner_samples)

    def test_batched_planning_metrics_run_is_byte_identical(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **self.CONFIG)
        plain = run_tenant_cell(config)
        metrics = MetricsTimeseries()
        observed = run_tenant_cell(config, metrics=metrics)
        assert _rendered(observed) == _rendered(plain)
        assert metrics.counter("batch:windows") > 0
        occupied = [s for s in metrics.samples if "batch_occupancy" in s]
        assert occupied, "batched planning should sample window occupancy"

    def test_shock_grammar_metrics_run_is_byte_identical(self):
        from repro.workload.grammar import default_shock_grammar

        grammar = default_shock_grammar()
        config = TenantExperimentConfig(
            scheme="econ-cheap", shocks=grammar.shocks,
            tenant_tiers=grammar.tiers, grammar=grammar, **self.CONFIG)
        plain = run_tenant_cell(config)
        metrics = MetricsTimeseries()
        observed = run_tenant_cell(config, metrics=metrics)
        assert _rendered(observed) == _rendered(plain)
