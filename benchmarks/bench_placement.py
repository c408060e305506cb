"""Adaptive-placement benchmark: hash vs adaptive, full vs delta barriers.

Two claims of ``docs/distcache.md`` are measured on a locality-skewed
partitioned run (template-affinity routing concentrates each template's
queries on one partition, so the structures a hot template needs but does
not hash-own are paid for remotely over and over — exactly the demand
pattern adaptive placement exists to fix):

* **Surcharge** — handing a structure to its highest-benefit partition
  converts recurring remote hits into local hits: the adaptive run's
  remote-hit rate and modeled surcharge dollars must come in below the
  hash run's.
* **Barrier bytes** — publishing directory deltas (with a periodic full
  anchor) instead of republishing the snapshot keeps barrier cost
  proportional to churn, not cache size: bytes published per barrier
  must come in below full republication in both modes.

Results land in ``BENCH_placement.json`` next to the other artifacts.

Run directly::

    PYTHONPATH=src python benchmarks/bench_placement.py --tenants 60 --queries 600

or via the pytest wrapper (``benchmarks/test_bench_placement.py``), which
uses a smaller population so the suite stays fast.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, Optional, Sequence

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.distcache import run_partitioned_cell  # noqa: E402
from repro.experiments.tenants import TenantExperimentConfig  # noqa: E402

#: Default artifact path: the repository root, as a first-class record.
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_placement.json")


def _mode_record(report, elapsed_s: float, query_count: int) -> Dict:
    """One placement mode's measured record for the artifact."""
    barriers = max(1, len(report.publications))
    return {
        "placement": report.placement,
        "elapsed_s": elapsed_s,
        "remote_hits": report.remote_hit_count,
        "remote_hit_rate": report.remote_hit_count / query_count,
        "remote_surcharge_dollars": report.remote_dollars_paid,
        "handoffs": report.handoff_count,
        "barriers": report.barriers_verified,
        "directory_bytes_published": report.directory_bytes_published,
        "directory_bytes_full_republication": report.directory_bytes_full,
        "directory_bytes_per_barrier_published":
            report.directory_bytes_published / barriers,
        "directory_bytes_per_barrier_full":
            report.directory_bytes_full / barriers,
    }


def run_benchmark(tenant_count: int = 60, query_count: int = 600,
                  partitions: int = 4, scheme: str = "econ-cheap",
                  seed: int = 0, settlement_period_s: float = 30.0,
                  handoff_threshold: float = 0.0) -> Dict:
    """Run the same cell under hash and adaptive placement; record both.

    Args:
        tenant_count: population size of the cell.
        query_count: queries replayed per run.
        partitions: cache partitions (the same for both modes).
        scheme: the caching scheme under test.
        seed: workload/population seed.
        settlement_period_s: barrier period — the epoch length handoffs
            and directory publications happen at.
        handoff_threshold: hysteresis margin of the adaptive run.

    Returns:
        The report dictionary written to ``BENCH_placement.json``.
    """
    config = TenantExperimentConfig(
        scheme=scheme, tenant_count=tenant_count, query_count=query_count,
        interarrival_s=1.0, seed=seed,
        settlement_period_s=settlement_period_s,
    )
    runs = []
    for placement in ("hash", "adaptive"):
        started = time.perf_counter()
        report = run_partitioned_cell(
            config, partitions=partitions, compare_baseline=False,
            placement=placement, handoff_threshold=handoff_threshold)
        elapsed_s = time.perf_counter() - started
        runs.append(_mode_record(report, elapsed_s, query_count))
    return {
        "benchmark": "placement",
        "scheme": scheme,
        "tenant_count": tenant_count,
        "query_count": query_count,
        "partitions": partitions,
        "seed": seed,
        "settlement_period_s": settlement_period_s,
        "handoff_threshold": handoff_threshold,
        "python": platform.python_version(),
        "runs": runs,
    }


def write_report(report: Dict, path: str = DEFAULT_OUTPUT) -> str:
    """Write the report as pretty JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record hash-vs-adaptive placement and full-vs-delta "
                    "barrier costs to BENCH_placement.json")
    parser.add_argument("--tenants", type=int, default=60)
    parser.add_argument("--queries", type=int, default=600)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--scheme", default="econ-cheap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settlement-period", type=float, default=30.0)
    parser.add_argument("--handoff-threshold", type=float, default=0.0)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    report = run_benchmark(
        tenant_count=args.tenants, query_count=args.queries,
        partitions=args.partitions, scheme=args.scheme, seed=args.seed,
        settlement_period_s=args.settlement_period,
        handoff_threshold=args.handoff_threshold,
    )
    path = write_report(report, args.output)
    for run in report["runs"]:
        print(f"{run['placement']:>8}: "
              f"remote hits {run['remote_hits']} "
              f"({run['remote_hit_rate']:.1%}), "
              f"surcharge ${run['remote_surcharge_dollars']:.4f}, "
              f"{run['handoffs']} handoffs, "
              f"{run['directory_bytes_per_barrier_published']:.0f} B/barrier "
              f"published vs {run['directory_bytes_per_barrier_full']:.0f} "
              f"full")
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
