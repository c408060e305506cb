"""Scheme resilience under market shocks: throughput and degradation.

Replays the stock adversarial grammar (weighted query classes, a flash
crowd, tenant SLA tiers) through every econ scheme twice — clean, and
with the full market-shock sequence injected (an index invalidation, a
3x provider price shock, a halving budget squeeze) — and records the
results to ``BENCH_shocks.json`` at the repository root:

- per scheme: clean and shocked wall-clock + queries/s, operating-cost
  ratio, cache-hit degradation, shocked-run evictions;
- the bitwise conservation audit of every shocked run (the report
  refuses to claim anything if a single audit is not exact).

Each pair runs ``--repetitions`` times; the headline queries/s comes
from the best repetition, which is the standard way to strip scheduler
noise from a throughput measurement.

Run on the headline population (50 tenants, 2000 queries):

    PYTHONPATH=src python benchmarks/bench_shocks.py

Reduced size (CI smoke):

    PYTHONPATH=src python benchmarks/bench_shocks.py --tenants 10 \
        --queries 200 --repetitions 1 \
        --output bench-artifacts/BENCH_shocks.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.shocks import (  # noqa: E402
    audited_shock_cell,
    baseline_config,
)
from repro.experiments.tenants import (  # noqa: E402
    TenantExperimentConfig,
    run_tenant_cell,
)
from repro.workload.grammar import default_shock_grammar  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_shocks.json",
)

DEFAULT_SCHEMES = ("econ-col", "econ-cheap", "econ-fast")


def shocked_config(scheme: str, tenants: int, queries: int,
                   interarrival_s: float, seed: int,
                   settlement_period_s: float,
                   strict: bool) -> TenantExperimentConfig:
    grammar = default_shock_grammar()
    return TenantExperimentConfig(
        scheme=scheme,
        tenant_count=tenants,
        query_count=queries,
        interarrival_s=interarrival_s,
        seed=seed,
        settlement_period_s=settlement_period_s,
        shocks=grammar.shocks,
        tenant_tiers=grammar.tiers,
        strict_maintenance=strict,
        grammar=grammar,
    )


def run_benchmark(tenants: int = 50, query_count: int = 2000,
                  interarrival_s: float = 5.0, seed: int = 0,
                  settlement_period_s: float = 100.0,
                  strict: bool = False,
                  schemes: Sequence[str] = DEFAULT_SCHEMES,
                  repetitions: int = 3) -> Dict:
    """Time clean-vs-shocked pairs per scheme and assemble the report."""
    runs: List[Dict] = []
    all_exact = True
    for scheme in schemes:
        config = shocked_config(scheme, tenants, query_count,
                                interarrival_s, seed, settlement_period_s,
                                strict)
        clean_elapsed: List[float] = []
        shocked_elapsed: List[float] = []
        clean = shocked_cell = audit = None
        for _ in range(repetitions):
            started = time.perf_counter()
            clean = run_tenant_cell(baseline_config(config))
            clean_elapsed.append(time.perf_counter() - started)
            started = time.perf_counter()
            shocked_cell, audit = audited_shock_cell(config)
            shocked_elapsed.append(time.perf_counter() - started)
        exact = audit is not None and audit.exact
        all_exact = all_exact and exact
        base_cost = clean.summary.operating_cost
        runs.append({
            "scheme": scheme,
            "clean_elapsed_s": min(clean_elapsed),
            "clean_queries_per_s": query_count / min(clean_elapsed),
            "shocked_elapsed_s": min(shocked_elapsed),
            "shocked_queries_per_s": query_count / min(shocked_elapsed),
            "operating_cost": base_cost,
            "operating_cost_shocked": shocked_cell.summary.operating_cost,
            "cost_ratio": (shocked_cell.summary.operating_cost / base_cost
                           if base_cost else None),
            "cache_hit_rate": clean.summary.cache_hit_rate,
            "cache_hit_rate_shocked": shocked_cell.summary.cache_hit_rate,
            "evictions_shocked": shocked_cell.summary.evictions,
            "eviction_losses_shocked": shocked_cell.summary.eviction_losses,
            "conservation_exact": exact,
            "wallets_audited": audit.wallets_audited if audit else 0,
        })
    return {
        "benchmark": "shocks",
        "tenants": tenants,
        "query_count": query_count,
        "interarrival_s": interarrival_s,
        "seed": seed,
        "settlement_period_s": settlement_period_s,
        "strict_maintenance": strict,
        "repetitions": repetitions,
        "python": platform.python_version(),
        "grammar": "default_shock_grammar",
        "conservation_exact": all_exact,
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
        description="Record clean-vs-shocked scheme resilience to "
                    "BENCH_shocks.json")
    parser.add_argument("--tenants", type=int, default=50)
    parser.add_argument("--queries", type=int, default=2000)
    parser.add_argument("--interarrival", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settlement-period", type=float, default=100.0)
    parser.add_argument("--strict-maintenance", action="store_true")
    parser.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES))
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    schemes = [name.strip() for name in args.schemes.split(",")
               if name.strip()]
    report = run_benchmark(
        tenants=args.tenants, query_count=args.queries,
        interarrival_s=args.interarrival, seed=args.seed,
        settlement_period_s=args.settlement_period,
        strict=args.strict_maintenance, schemes=schemes,
        repetitions=args.repetitions,
    )
    path = write_report(report, args.output)
    for run in report["runs"]:
        ratio = run["cost_ratio"]
        print(f"{run['scheme']:>10}: clean {run['clean_queries_per_s']:.0f} "
              f"q/s, shocked {run['shocked_queries_per_s']:.0f} q/s, "
              f"cost x{ratio:.2f}" if ratio is not None else
              f"{run['scheme']:>10}: cost ratio n/a")
        print(f"{'':>12}conservation: "
              f"{'exact' if run['conservation_exact'] else 'VIOLATED'} "
              f"({run['wallets_audited']} wallets audited)")
    print(f"conservation (all schemes): "
          f"{'exact' if report['conservation_exact'] else 'VIOLATED'}")
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
