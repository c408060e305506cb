"""Partitioned-cache scaling benchmark: partitioned vs the global cache.

The claim under test is the one ``docs/distcache.md`` makes: the
partitioned mode keeps per-query compute flat (each query is planned and
priced by exactly one partition) and shrinks each partition's cache
footprint to its owned slice.

Every run is sequential in one process here, so wall-clock is total
compute: the global-cache cell is the ``unsharded`` baseline, and a
partitioned cell at any scale does ~1 times its engine work. Per-partition
peak cache bytes are read from the cache managers themselves. Each
partitioned scale also runs with ``placement="adaptive"``: template-affinity routing makes the
workload locality-skewed (a template's queries all land on one
partition, which keeps paying the remote surcharge for foreign-owned
structures), and the adaptive rows record how demand-driven handoffs cut
that surcharge and how delta publication cuts barrier bytes (the
dedicated sweep is ``bench_placement.py``). Results land in
``BENCH_distcache.json``.

A separate jobs axis times the one place partitioned runs use more than
one core: the three economic schemes' cells, partitioned, run through
``run_partitioned_experiment`` at ``jobs=1`` and ``jobs=2`` (a cell's
partitions always share one process; ``jobs`` fans out whole cells).
Its rows are ``jobs_runs``; ``speedup.jobs2_vs_jobs1`` is the jobs-1
median wall time over the jobs-2 median, so 1.0 or more means "no
slower".

Run directly::

    PYTHONPATH=src python benchmarks/bench_distcache.py --tenants 100 --queries 300

or via the pytest wrapper (``benchmarks/test_bench_distcache.py``), which
uses a smaller population so the suite stays fast.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.distcache import (  # noqa: E402
    run_partitioned_cell,
    run_partitioned_experiment,
)
from repro.experiments.tenants import (  # noqa: E402
    TenantExperimentConfig,
    run_tenant_cell,
)

#: Default artifact path: the repository root, as a first-class record.
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_distcache.json")


#: The cells the jobs axis fans out: every scheme with an economy, each
#: split into JOBS_PARTITIONS cache partitions.
JOBS_SCHEMES = ("econ-col", "econ-cheap", "econ-fast")
JOBS_PARTITIONS = 2


def _jobs_axis(config: TenantExperimentConfig,
               repetitions: int) -> List[Dict]:
    """Time the economic schemes' partitioned cells at jobs 1 and 2.

    The two job counts alternate within each repetition, so drift on the
    machine hits both alike; each row keeps every repetition and reports
    the median.
    """
    configs = [replace(config, scheme=scheme) for scheme in JOBS_SCHEMES]
    timings: Dict[int, List[float]] = {1: [], 2: []}
    identical = True
    for _ in range(repetitions):
        by_jobs = {}
        for jobs in timings:
            started = time.perf_counter()
            by_jobs[jobs] = run_partitioned_experiment(
                configs, partitions=JOBS_PARTITIONS, jobs=jobs,
                compare_baseline=False)
            timings[jobs].append(time.perf_counter() - started)
        identical = identical and by_jobs[2] == by_jobs[1]
    rows: List[Dict] = []
    for jobs, elapsed in timings.items():
        median_s = statistics.median(elapsed)
        rows.append({
            "jobs": jobs,
            "partitions": JOBS_PARTITIONS,
            "cells": len(configs),
            "query_count": config.query_count,
            "repetitions": repetitions,
            "elapsed_s": median_s,
            "elapsed_s_runs": elapsed,
            "queries_per_s": config.query_count * len(configs) / median_s,
            "identical_to_jobs1": identical,
        })
    return rows


def _peak_global_cache_bytes(config: TenantExperimentConfig) -> int:
    """Peak cache footprint of the global-cache run."""
    import repro.experiments.tenants as tenants_module
    from repro.policies.economic import EconomicSchemeConfig
    from repro.economy.tenancy import TenantRegistry
    from repro.simulator.simulation import CloudSimulation, SimulationConfig
    from repro.system import CloudSystem

    populated = tenants_module.build_population(config)
    system = CloudSystem()
    registry = TenantRegistry()
    registry.register_all(populated.profiles)
    scheme = system.scheme(
        config.scheme, economic_config=EconomicSchemeConfig(tenants=registry))
    CloudSimulation(scheme, SimulationConfig(
        settlement_period_s=config.settlement_period_s,
    )).run(populated.queries, tenant_lifecycle=populated.lifecycle)
    return scheme.cache.peak_disk_used_bytes


def run_benchmark(tenant_count: int = 100, query_count: int = 300,
                  partition_counts: Sequence[int] = (1, 2, 4),
                  scheme: str = "econ-cheap", seed: int = 0,
                  settlement_period_s: float = 30.0,
                  jobs_query_count: int = 2000,
                  jobs_repetitions: int = 3) -> Dict:
    """Time the partitioned modes at each scale; record the artifact.

    Args:
        tenant_count: population size of the cell.
        query_count: queries replayed per run.
        partition_counts: scales to sweep; each count N is run as
            ``--cache-partitions N`` with hash and adaptive placement.
        scheme: the caching scheme under test.
        seed: workload/population seed.
        settlement_period_s: barrier period (directory sync cadence).
        jobs_query_count: queries per cell on the jobs axis; large enough
            by default that cell work, not pool start-up, dominates.
        jobs_repetitions: timed repetitions per job count on the jobs axis.

    Returns:
        The report dictionary written to ``BENCH_distcache.json``.
    """
    config = TenantExperimentConfig(
        scheme=scheme, tenant_count=tenant_count, query_count=query_count,
        interarrival_s=1.0, seed=seed,
        settlement_period_s=settlement_period_s,
    )
    started = time.perf_counter()
    run_tenant_cell(config)
    unsharded_s = time.perf_counter() - started
    global_peak = _peak_global_cache_bytes(config)

    runs: List[Dict] = []
    for count in partition_counts:
        for placement in ("hash", "adaptive"):
            started = time.perf_counter()
            report = run_partitioned_cell(config, partitions=count,
                                          compare_baseline=False,
                                          placement=placement)
            partitioned_s = time.perf_counter() - started
            runs.append({
                # "partitioned" == the hash-placement mode of PR 4; the
                # adaptive mode additionally hands hot structures to
                # their highest-benefit partition at barriers, cutting
                # the recurring remote surcharge the locality-skewed
                # template routing otherwise keeps paying.
                "benchmark_mode": ("partitioned" if placement == "hash"
                                   else "adaptive"),
                "partitions": count,
                "elapsed_s": partitioned_s,
                "queries_per_s": query_count / partitioned_s,
                "engine_queries": query_count,
                "peak_worker_cache_bytes": max(
                    stats.peak_cache_bytes for stats in report.partitions),
                "remote_hits": report.remote_hit_count,
                "remote_surcharge_dollars": report.remote_dollars_paid,
                "handoffs": report.handoff_count,
                "directory_bytes_published":
                    report.directory_bytes_published,
                "directory_bytes_full_republication":
                    report.directory_bytes_full,
                "cache_hit_rate": report.cell.summary.cache_hit_rate,
                "barriers_verified": report.barriers_verified,
            })
    jobs_runs = _jobs_axis(
        replace(config, query_count=jobs_query_count), jobs_repetitions)
    return {
        "benchmark": "distcache",
        "scheme": scheme,
        "tenant_count": tenant_count,
        "query_count": query_count,
        "seed": seed,
        "settlement_period_s": settlement_period_s,
        "jobs_schemes": list(JOBS_SCHEMES),
        "jobs_partitions": JOBS_PARTITIONS,
        "jobs_query_count": jobs_query_count,
        "jobs_repetitions": jobs_repetitions,
        "python": platform.python_version(),
        "unsharded": {
            "elapsed_s": unsharded_s,
            "queries_per_s": query_count / unsharded_s,
            "peak_worker_cache_bytes": global_peak,
        },
        "runs": runs,
        "jobs_runs": jobs_runs,
        "speedup": {
            "jobs2_vs_jobs1": (jobs_runs[0]["elapsed_s"]
                               / jobs_runs[1]["elapsed_s"]),
        },
    }


def write_report(report: Dict, path: str = DEFAULT_OUTPUT) -> str:
    """Write the report as pretty JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record partitioned-cache throughput to "
                    "BENCH_distcache.json")
    parser.add_argument("--tenants", type=int, default=100)
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--partitions", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--scheme", default="econ-cheap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settlement-period", type=float, default=30.0)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--history", default=None, metavar="DIR",
                        help="additionally append a bench-history record "
                             "(git sha + config hash + headline metrics) "
                             "to DIR/<benchmark>.jsonl for "
                             "'repro report --baseline'")
    args = parser.parse_args(argv)
    report = run_benchmark(
        tenant_count=args.tenants, query_count=args.queries,
        partition_counts=tuple(args.partitions), scheme=args.scheme,
        seed=args.seed, settlement_period_s=args.settlement_period,
    )
    path = write_report(report, args.output)
    if args.history:
        from repro.obs.history import append_bench_history

        history_path = append_bench_history(report, args.history)
        print(f"history appended to {history_path}")
    for run in report["runs"]:
        print(f"{run['benchmark_mode']:>11} x{run['partitions']}: "
              f"{run['elapsed_s']:.2f}s ({run['queries_per_s']:.0f} q/s, "
              f"peak {run['peak_worker_cache_bytes'] / 1024 ** 3:.0f} GB "
              f"cache/worker)")
    for run in report["jobs_runs"]:
        print(f"{run['cells']} cells x{run['partitions']} partitions, "
              f"jobs={run['jobs']}: {run['elapsed_s']:.2f}s")
    print(f"jobs2_vs_jobs1: {report['speedup']['jobs2_vs_jobs1']:.2f}x")
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
