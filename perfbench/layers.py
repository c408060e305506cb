"""Per-layer metric names, units, and how they derive from a traced run.

``traced.py`` writes a layer report: the self time of every span name
(a span's duration minus the part its child spans cover) and the counts
recorded at the same call boundaries. This module turns a report into
the per-layer metrics ``BENCHMARK.json`` lists.

Every ``..._s`` metric is the self time of one layer's spans. Names
ending ``.self_s`` mark layers whose spans mostly enclose other layers
(the kernel loop, the per-query economy, a cell, the CLI), so what is
left is their own work.
"""

from __future__ import annotations

from typing import Dict, Mapping

#: Span name -> per-layer time metric (its self time).
SPAN_METRICS: Dict[str, str] = {
    "workload.generate": "workload.generate_s",
    "workload.population": "workload.population_s",
    "simulator.kernel": "simulator.kernel.self_s",
    "simulator.tenant_lifecycle": "simulator.tenant_lifecycle_s",
    "simulator.settlement": "simulator.settlement_s",
    "simulator.shock": "simulator.shock_s",
    "planner.enumerate": "planner.enumerate_s",
    "planner.skyline": "planner.skyline_s",
    "costmodel.evaluate_table": "costmodel.evaluate_table_s",
    "economy.price_plan": "economy.price_plan_s",
    "economy.prime": "economy.prime_s",
    "economy.negotiate": "economy.negotiate_s",
    "economy.process_query": "economy.process_query.self_s",
    "economy.invest": "economy.invest_s",
    "economy.tenancy.reset_regret": "economy.tenancy.reset_regret_s",
    "economy.tenancy.register": "economy.tenancy.register_s",
    "policies.bypass": "policies.bypass_s",
    "policies.economic": "policies.economic.self_s",
    "cache.evict_failed": "cache.evict_failed_s",
    "cache.admit": "cache.admit_s",
    "cache.evict": "cache.evict_s",
    "cache.invalidate": "cache.invalidate_s",
    "distcache.epoch": "distcache.epoch_s",
    "distcache.pool_wait": "distcache.pool_wait_s",
    "distcache.barrier": "distcache.barrier.self_s",
    "distcache.directory": "distcache.directory_s",
    "distcache.audit": "distcache.audit_s",
    "experiments.cell": "experiments.cell.self_s",
    "experiments.pool_wait": "experiments.pool_wait_s",
    "experiments.tables": "experiments.tables_s",
    "cli": "cli.self_s",
    "tracer": "tracer.self_s",
}

#: Kernel event classes counted per class (``simulator.events.<Class>``).
EVENT_CLASSES = (
    "QueryArrivalEvent",
    "TenantArrivalEvent",
    "TenantChurnEvent",
    "MaintenanceSettlementEvent",
    "StructureInvalidationEvent",
    "ProviderPriceShockEvent",
    "TenantBudgetSqueezeEvent",
    "StructureFailureCheckEvent",
    "WorkloadPhaseChangeEvent",
)

#: Counts reported as they were recorded, with their units.
COUNT_METRICS: Dict[str, str] = {
    "workload.queries": "count",
    "simulator.events": "count",
    **{f"simulator.events.{name}": "count" for name in EVENT_CLASSES},
    "planner.plans": "count",
    "costmodel.rows_scored": "count",
    "economy.plans_priced": "count",
    "economy.queries": "count",
    "economy.cache_hits": "count",
    "economy.builds": "count",
    "economy.tenancy.peak_materialized": "count",
    "policies.cache_hits": "count",
    "cache.admits": "count",
    "cache.evictions": "count",
    "cache.invalidations": "count",
    "distcache.epochs": "count",
    "distcache.barriers": "count",
    "distcache.task_bytes": "bytes",
    "distcache.task_bytes_max": "bytes",
}

#: Ratios: metric -> (numerator count, denominator count).
RATIO_METRICS: Dict[str, tuple] = {
    "planner.skyline_kept_ratio": ("planner.skyline_kept",
                                   "planner.skyline_priced"),
    "economy.cache_hit_ratio": ("economy.cache_hits", "economy.queries"),
    "distcache.remote_hit_ratio": ("distcache.remote_hits",
                                   "distcache.queries_served"),
}

#: Metrics only the fanned-out (``--jobs`` > 1) run can show.
POOL_METRICS = frozenset({
    "distcache.pool_wait_s",
    "distcache.task_bytes",
    "distcache.task_bytes_max",
    "experiments.pool_wait_s",
})

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    **COUNT_METRICS,
    **{metric: "ratio" for metric in RATIO_METRICS},
}


def layer_metrics(report: Mapping) -> Dict[str, float]:
    """Per-layer metric values from one traced run's layer report."""
    self_s = report["self_s"]
    counts = report["counts"]
    values: Dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        values[metric] = self_s.get(span, 0.0)
    for metric in COUNT_METRICS:
        values[metric] = counts.get(metric, 0)
    for metric, (numerator, denominator) in RATIO_METRICS.items():
        total = counts.get(denominator, 0)
        values[metric] = counts.get(numerator, 0) / total if total else 0.0
    return values


def coverage(report: Mapping, wall_s: float) -> float:
    """Share of a traced invocation's wall time that named layers' self
    times account for."""
    named = sum(seconds for span, seconds in report["self_s"].items()
                if span in SPAN_METRICS)
    return named / wall_s
