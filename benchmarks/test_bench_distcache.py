"""Pytest wrapper around the partitioned-cache scaling benchmark.

Keeps the population small so the full suite stays fast, but exercises
the real pipeline: both placements at both scales, barrier audits, and
the ``BENCH_distcache.json`` artifact, including the acceptance gate —
at 2 partitions each partition's cache holds less than the global cache
while every query is still processed exactly once.
"""

from __future__ import annotations

import json

from bench_distcache import run_benchmark, write_report

from repro.distcache import run_partitioned_cell
from repro.experiments.tenants import TenantExperimentConfig


def test_distcache_scaling_report(output_dir):
    report = run_benchmark(tenant_count=30, query_count=120,
                           partition_counts=(1, 2),
                           settlement_period_s=20.0,
                           jobs_query_count=120, jobs_repetitions=1)
    by_mode = {}
    for run in report["runs"]:
        by_mode[(run["benchmark_mode"], run["partitions"])] = run

    assert {mode for mode, _ in by_mode} == {"partitioned", "adaptive"}
    # Per-query compute stays flat: each query is processed by exactly
    # one partition.
    assert by_mode[("partitioned", 2)]["engine_queries"] == 120
    # The cache-footprint claim: each partition holds only its slice of
    # what the global cache materialises.
    assert (by_mode[("partitioned", 2)]["peak_worker_cache_bytes"]
            < report["unsharded"]["peak_worker_cache_bytes"])
    # Audits ran at every barrier.
    assert by_mode[("partitioned", 2)]["barriers_verified"] > 0
    # The placement claim: adaptive handoffs cut the remote surcharge the
    # hash placement keeps paying, and deltas undercut full republication.
    assert (by_mode[("adaptive", 2)]["remote_surcharge_dollars"]
            < by_mode[("partitioned", 2)]["remote_surcharge_dollars"])
    assert (by_mode[("adaptive", 2)]["directory_bytes_published"]
            < by_mode[("adaptive", 2)]["directory_bytes_full_republication"])

    # The jobs axis: both job counts timed, the cell pool byte-identical
    # to the sequential run.
    assert [run["jobs"] for run in report["jobs_runs"]] == [1, 2]
    assert all(run["identical_to_jobs1"] for run in report["jobs_runs"])
    assert report["speedup"]["jobs2_vs_jobs1"] > 0

    path = write_report(report, f"{output_dir}/BENCH_distcache.json")
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["benchmark"] == "distcache"


def test_partitioned_cell_rate(benchmark):
    config = TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=30, query_count=60,
        interarrival_s=1.0, seed=0, settlement_period_s=20.0)
    report = benchmark(lambda: run_partitioned_cell(
        config, partitions=2, compare_baseline=False))
    assert report.partition_count == 2
