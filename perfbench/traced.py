"""Traced runner: one workload invocation with per-layer spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py --out layers.json -- -m repro.cli tenants --seed 0
    python3 perfbench/traced.py --out layers.json -- perfbench/grid.py --seed 0

Before calling the entry point's ``main`` the runner wraps the public
functions of each layer (the list is ``TARGETS`` below) so every call
records a span: name, start, end and parent. Counts are recorded at the
same call boundaries. Spans stay in memory until the run ends; then
each span name's self time (duration minus the time its child spans
cover) and the counts are written to ``--out`` as JSON. Nothing under
``src/`` changes, and the printed output is the untraced output byte for
byte.

The root span ``cli`` covers interpreter start-up (when the benchmark
passes the spawn instant), importing the entry module and running its
``main``. Work inside pool worker processes is seen from the parent, as
time blocked on the pool and as pickled task and result bytes; forked
workers inherit the wrappers but record nothing.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import functools
import importlib
import json
import os
import pickle
import sys
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layers


class Tracer:
    """In-memory spans plus counts; one per traced process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.enabled = True

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(time.perf_counter() if start is None
                               else start)
        self.span_end.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the children's durations."""
        durations = [end - start
                     for start, end in zip(self.span_start, self.span_end)]
        own = list(durations)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[index]
        totals: Dict[str, float] = {}
        for index, seconds in enumerate(own):
            name = self.names[self.span_name[index]]
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def report(self) -> dict:
        return {
            "spans": len(self.span_start),
            "root_s": self.span_end[0] - self.span_start[0],
            "self_s": self.self_times(),
            "counts": dict(sorted(self.counts.items())),
        }


TRACER = Tracer()
Hook = Callable[[tuple, object, object], None]


def traced(name: str, function: Callable, before: Optional[Callable] = None,
           after: Optional[Hook] = None) -> Callable:
    """``function`` wrapped in a span; ``after(args, result, state)`` counts.

    ``functools.wraps`` keeps ``__module__``/``__qualname__``, so a
    wrapped module function installed under its own name still pickles
    by reference (pool tasks name their function that way).
    """
    tracer = TRACER

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return function(*args, **kwargs)
        state = before(args) if before is not None else None
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, result, state)
        return result

    return wrapper


def count(name: str, amount: int = 1) -> None:
    TRACER.counts[name] += amount


def peak(name: str, value: int) -> None:
    if value > TRACER.counts[name]:
        TRACER.counts[name] = value


# -- count hooks ----------------------------------------------------------------


def _kernel_before(args: tuple) -> Dict[type, int]:
    kernel = args[0]
    return {cls: kernel.dispatch_count(cls) for cls in _event_classes()}


def _kernel_after(args: tuple, dispatched, before) -> None:
    kernel = args[0]
    count("simulator.events", dispatched)
    for cls, already in before.items():
        delta = kernel.dispatch_count(cls) - already
        if delta:
            count(f"simulator.events.{cls.__name__}", delta)


def _event_classes() -> Tuple[type, ...]:
    from repro.simulator import events

    return tuple(getattr(events, name) for name in layers.EVENT_CLASSES)


def _count_plans(args, plans, state) -> None:
    count("planner.plans", len(plans))


def _count_skyline(args, kept, state) -> None:
    count("planner.skyline_priced", len(args[0]))
    count("planner.skyline_kept", len(kept))


def _count_rows(args, estimates, state) -> None:
    table, queries = args[0], args[1]
    count("costmodel.rows_scored", table.row_count * len(queries))


def _count_priced(args, priced, state) -> None:
    count("economy.plans_priced")


def _count_outcome(args, outcome, state) -> None:
    count("economy.queries")
    if outcome.served_in_cache:
        count("economy.cache_hits")
    count("economy.builds", len(outcome.builds))


def _count_step(args, step, state) -> None:
    count("workload.queries")
    if step.served_in_cache:
        count("policies.cache_hits")


def _count_materialized(args, result, state) -> None:
    registry = args[0]
    materialized = getattr(registry, "materialized_tenant_count", None)
    peak("economy.tenancy.peak_materialized",
         materialized() if callable(materialized) else len(registry))


def _count_admit(args, result, state) -> None:
    count("cache.admits")


def _count_evict(args, result, state) -> None:
    count("cache.evictions")


def _count_invalidation(args, records, state) -> None:
    count("cache.invalidations")


def _count_epoch(args, result, state) -> None:
    count("distcache.epochs")


def _count_cell_report(args, report, state) -> None:
    count("distcache.barriers", report.barriers_verified)
    count("distcache.remote_hits", report.remote_hit_count)
    count("distcache.queries_served",
          sum(stats.queries_served for stats in report.partitions))


# -- what is wrapped ------------------------------------------------------------

#: (module, attribute path, span name, before hook, after hook). A dotted
#: path wraps a method on its defining class; a plain name wraps a module
#: function everywhere it is bound.
TARGETS: Tuple[tuple, ...] = (
    ("repro.workload.generator", "WorkloadGenerator.generate",
     "workload.generate", None, None),
    ("repro.workload.grammar", "ScenarioGrammar.compile",
     "workload.generate", None, None),
    ("repro.workload.grammar", "compile_shock_events",
     "workload.generate", None, None),
    ("repro.experiments.tenants", "build_population",
     "workload.population", None, None),
    ("repro.workload.population", "TenantPopulation.populate",
     "workload.population", None, None),
    ("repro.simulator.kernel", "SimulationKernel.run",
     "simulator.kernel", _kernel_before, _kernel_after),
    ("repro.simulator.handlers", "SchemeTenant.on_tenant_arrival",
     "simulator.tenant_lifecycle", None, None),
    ("repro.simulator.handlers", "SchemeTenant.on_tenant_churn",
     "simulator.tenant_lifecycle", None, None),
    ("repro.simulator.handlers", "SchemeTenant.on_settlement",
     "simulator.settlement", None, None),
    ("repro.simulator.handlers", "SchemeTenant.on_invalidation",
     "simulator.shock", None, None),
    ("repro.simulator.handlers", "SchemeTenant.on_price_shock",
     "simulator.shock", None, None),
    ("repro.simulator.handlers", "SchemeTenant.on_budget_squeeze",
     "simulator.shock", None, None),
    ("repro.planner.enumerator", "PlanEnumerator.enumerate",
     "planner.enumerate", None, _count_plans),
    # Both skyline filters walk skyline_indices, so only it counts.
    ("repro.planner.skyline", "skyline_filter",
     "planner.skyline", None, None),
    ("repro.planner.skyline", "skyline_indices",
     "planner.skyline", None, _count_skyline),
    ("repro.costmodel.vectorized", "skyline_filter",
     "planner.skyline", None, None),
    ("repro.costmodel.vectorized", "evaluate_plan_table",
     "costmodel.evaluate_table", None, _count_rows),
    ("repro.economy.pricing", "PlanPricer.price_plan",
     "economy.price_plan", None, _count_priced),
    ("repro.economy.pricing", "PlanPricer.price_plans",
     "economy.price_plan", None, None),
    ("repro.economy.engine", "EconomyEngine.prime_queries",
     "economy.prime", None, None),
    ("repro.economy.negotiation", "negotiate",
     "economy.negotiate", None, None),
    ("repro.economy.engine", "EconomyEngine.process_query",
     "economy.process_query", None, _count_outcome),
    ("repro.economy.investment", "InvestmentPolicy.candidates",
     "economy.invest", None, None),
    ("repro.economy.tenancy", "TenantRegistry.reset_regret",
     "economy.tenancy.reset_regret", None, None),
    ("repro.economy.tenancy", "TenantRegistry.register",
     "economy.tenancy.register", None, _count_materialized),
    ("repro.economy.tenancy", "TenantRegistry.register_all",
     "economy.tenancy.register", None, _count_materialized),
    ("repro.economy.tenancy", "TenantRegistry.activate",
     "economy.tenancy.register", None, _count_materialized),
    ("repro.economy.tenancy", "GenerativeTenantRegistry.register",
     "economy.tenancy.register", None, _count_materialized),
    ("repro.economy.tenancy", "GenerativeTenantRegistry.activate",
     "economy.tenancy.register", None, _count_materialized),
    ("repro.policies.bypass_yield", "BypassYieldScheme.process",
     "policies.bypass", None, _count_step),
    ("repro.policies.economic", "EconomicScheme.process",
     "policies.economic", None, _count_step),
    ("repro.cache.manager", "CacheManager.evict_failed_structures",
     "cache.evict_failed", None, None),
    ("repro.cache.manager", "CacheManager.admit",
     "cache.admit", None, _count_admit),
    ("repro.distcache.manager", "PartitionedCacheManager.admit",
     "cache.admit", None, None),
    ("repro.cache.manager", "CacheManager.evict",
     "cache.evict", None, _count_evict),
    ("repro.economy.engine", "EconomyEngine.invalidate_structures",
     "cache.invalidate", None, _count_invalidation),
    ("repro.distcache.runner", "run_partition_epoch",
     "distcache.epoch", None, _count_epoch),
    ("repro.distcache.runner", "DistCacheRunner.run_cell",
     "distcache.barrier", None, _count_cell_report),
    ("repro.distcache.directory", "CrossShardDirectory.publish",
     "distcache.directory", None, None),
    ("repro.distcache.directory", "DirectoryDelta.between",
     "distcache.directory", None, None),
    ("repro.distcache.directory", "CrossShardDirectory.verify_backed_by",
     "distcache.audit", None, None),
    ("repro.distcache.directory", "verify_delta_fold",
     "distcache.audit", None, None),
    ("repro.distcache.merge", "verify_subaccount_integrity",
     "distcache.audit", None, None),
    ("repro.distcache.merge", "verify_payment_conservation",
     "distcache.audit", None, None),
    ("repro.distcache.merge", "verify_wallet_integrity",
     "distcache.audit", None, None),
    ("repro.distcache.merge", "merge_partition_results",
     "distcache.audit", None, None),
    ("repro.experiments.runner", "run_grid",
     "experiments.cell", None, None),
    ("repro.experiments.runner", "run_cell",
     "experiments.cell", None, None),
    ("repro.experiments.tenants", "run_tenant_experiment",
     "experiments.cell", None, None),
    ("repro.experiments.tenants", "run_tenant_cell",
     "experiments.cell", None, None),
    ("repro.experiments.shocks", "run_shock_resilience",
     "experiments.cell", None, None),
    ("repro.experiments.shocks", "audited_shock_cell",
     "experiments.cell", None, None),
    ("repro.experiments.figure4", "figure4_table",
     "experiments.tables", None, None),
    ("repro.experiments.figure5", "figure5_table",
     "experiments.tables", None, None),
    ("repro.experiments.headline", "headline_table",
     "experiments.tables", None, None),
    ("repro.experiments.tenants", "tenant_aggregate_table",
     "experiments.tables", None, None),
    ("repro.experiments.tenants", "top_tenant_table",
     "experiments.tables", None, None),
    ("repro.experiments.shocks", "shock_resilience_table",
     "experiments.tables", None, None),
    ("repro.distcache.report", "distcache_partition_table",
     "experiments.tables", None, None),
    ("repro.distcache.report", "distcache_divergence_table",
     "experiments.tables", None, None),
    ("repro.distcache.report", "distcache_placement_table",
     "experiments.tables", None, None),
)

#: Modules whose ``ProcessPoolExecutor`` is swapped for a timed one, and
#: the span its waits record under.
POOL_SITES = (
    ("repro.experiments.runner", "experiments.pool_wait"),
    ("repro.experiments.tenants", "experiments.pool_wait"),
    ("repro.experiments.shocks", "experiments.pool_wait"),
    ("repro.distcache.runner", "distcache.pool_wait"),
)


def _pickled_size(value) -> int:
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def timed_pool(span: str, measure_bytes: bool) -> type:
    """A ``ProcessPoolExecutor`` whose blocking calls record ``span``."""

    class TimedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, timeout=None, chunksize=1):
            if not TRACER.enabled:
                return super().map(fn, *iterables, timeout=timeout,
                                   chunksize=chunksize)
            columns = [list(iterable) for iterable in iterables]
            if measure_bytes:
                self._count_bytes(args for args in zip(*columns))
            index = TRACER.open(span)
            try:
                results = list(super().map(fn, *columns, timeout=timeout,
                                           chunksize=chunksize))
            finally:
                TRACER.close(index)
            if measure_bytes:
                self._count_bytes(results)
            return iter(results)

        def shutdown(self, wait=True, *, cancel_futures=False):
            if not TRACER.enabled:
                return super().shutdown(wait, cancel_futures=cancel_futures)
            index = TRACER.open(span)
            try:
                return super().shutdown(wait, cancel_futures=cancel_futures)
            finally:
                TRACER.close(index)

        @staticmethod
        def _count_bytes(values) -> None:
            # Re-pickling to size each payload is the tracer's own work.
            index = TRACER.open("tracer")
            try:
                for value in values:
                    size = _pickled_size(value)
                    count("distcache.task_bytes", size)
                    peak("distcache.task_bytes_max", size)
            finally:
                TRACER.close(index)

    return TimedPool


def _rebind(original, replacement) -> None:
    """Point every ``repro`` (and entry-module) binding of ``original``
    at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")
                                  or getattr(module, "__perfbench_entry__",
                                             False)):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install() -> None:
    """Wrap every target and pool site; call once per process."""
    for module_name, path, span, before, after in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(
                    traced(span, raw.__func__, before, after)))
            else:
                setattr(cls, method, traced(span, raw, before, after))
        else:
            original = getattr(module, path)
            _rebind(original, traced(span, original, before, after))
    for module_name, span in POOL_SITES:
        module = importlib.import_module(module_name)
        module.ProcessPoolExecutor = timed_pool(
            span, measure_bytes=span.startswith("distcache."))
    # Forked pool workers inherit the wrappers; they must not record.
    os.register_at_fork(after_in_child=_disable)


def _disable() -> None:
    TRACER.enabled = False


def _load_entry(argv: Sequence[str]):
    """The entry module and its ``main`` arguments from the entry argv."""
    if argv[0] == "-m":
        module = importlib.import_module(argv[1])
        rest = argv[2:]
    else:
        directory, filename = os.path.split(argv[0])
        if directory and os.path.abspath(directory) not in map(
                os.path.abspath, sys.path):
            sys.path.insert(0, directory)
        module = importlib.import_module(os.path.splitext(filename)[0])
        rest = argv[1:]
    module.__perfbench_entry__ = True
    return module, list(rest)


def _spawned_at() -> float:
    """When this process was spawned, on the ``perf_counter`` clock.

    The benchmark passes its spawn instant in ``PERFBENCH_SPAWNED`` so the
    root span also covers interpreter start-up. ``perf_counter`` is the
    system-wide monotonic clock on Linux; elsewhere, or when run by hand,
    the root span starts when this module started.
    """
    stamp = os.environ.get("PERFBENCH_SPAWNED")
    shared = (time.get_clock_info("perf_counter").implementation
              == "clock_gettime(CLOCK_MONOTONIC)")
    if stamp is None or not shared:
        return _STARTED
    return min(float(stamp), _STARTED)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--" not in args:
        print("usage: traced.py --out PATH -- ENTRY [ARGS...]",
              file=sys.stderr)
        return 2
    split = args.index("--")
    parser = argparse.ArgumentParser(prog="traced.py")
    parser.add_argument("--out", required=True)
    options = parser.parse_args(args[:split])
    entry = args[split + 1:]
    TRACER.open("cli", start=_spawned_at())
    try:
        module, rest = _load_entry(entry)
        setup = TRACER.open("tracer")
        install()
        TRACER.close(setup)
        code = module.main(rest)
        sys.stdout.flush()
    finally:
        while TRACER.stack:
            TRACER.close(TRACER.stack[-1])
    reporting = time.perf_counter()
    report = TRACER.report()
    # Summing the spans is the tracer's own time too.
    spent = time.perf_counter() - reporting
    report["self_s"]["tracer"] = report["self_s"].get("tracer", 0.0) + spent
    report["root_s"] += spent
    with open(options.out, "w") as handle:
        json.dump(report, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
