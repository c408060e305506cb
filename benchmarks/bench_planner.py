"""Single-process planning throughput of the economy engine.

Times the engine's query hot loop on the headline workload, with the
whole workload primed into the batch scheduler, and records the results
to ``BENCH_planner.json`` at the repository root:

- ``batched-cold``: starting from empty plan tables, so the run pays
  table materialisation and the vectorized epoch evaluation inside the
  timed loop.
- ``batched-warm``: the same loop reusing the plan tables materialised by
  the cold run (the steady state of a long-lived engine).

Each mode runs ``--repetitions`` times; the headline ``queries_per_s`` is
computed from the best repetition, which is the standard way to strip
scheduler noise from a throughput measurement. Every repetition's outcome
stream is compared step by step against the first cold one: reusing plan
tables must not change a single outcome.

Run on the headline workload (3000 queries, 1 s inter-arrival):

    PYTHONPATH=src python benchmarks/bench_planner.py

Reduced size (CI smoke):

    PYTHONPATH=src python benchmarks/bench_planner.py --queries 400 \
        --repetitions 2 --output bench-artifacts/BENCH_planner.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.planner.plan_table import PlanTableCache  # noqa: E402
from repro.system import CloudSystem  # noqa: E402
from repro.workload.generator import WorkloadGenerator, WorkloadSpec  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_planner.json",
)

#: (mode label, reuse warm plan tables)
MODES: Tuple[Tuple[str, bool], ...] = (
    ("batched-cold", False),
    ("batched-warm", True),
)


def _run_once(system: CloudSystem, queries, scheme_name: str,
              plan_tables: Optional[PlanTableCache] = None):
    """One timed pass over the workload; returns (elapsed, steps, scheme)."""
    scheme = system.scheme(scheme_name)
    scheme.engine.prime_queries(queries, plan_tables=plan_tables)
    started = time.perf_counter()
    steps = [scheme.process(query) for query in queries]
    elapsed = time.perf_counter() - started
    return elapsed, steps, scheme


def run_benchmark(query_count: int = 3000, interarrival_s: float = 1.0,
                  seed: int = 0, scheme: str = "econ-cheap",
                  repetitions: int = 3) -> Dict:
    """Time the cold and warm modes and assemble the report."""
    system = CloudSystem()
    queries = WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=interarrival_s, seed=seed,
    )).generate()

    runs: List[Dict] = []
    reference_steps = None
    warm_tables: Optional[PlanTableCache] = None
    outcomes_identical = True
    best_elapsed: Dict[str, float] = {}
    for mode, reuse_tables in MODES:
        elapsed_reps: List[float] = []
        for _ in range(repetitions):
            tables = warm_tables if reuse_tables else None
            elapsed, steps, run_scheme = _run_once(
                system, queries, scheme, plan_tables=tables,
            )
            elapsed_reps.append(elapsed)
            # Warm plan tables are a cache, not an input: every run must
            # produce the first cold run's outcome stream.
            if reference_steps is None:
                reference_steps = steps
            elif steps != reference_steps:
                outcomes_identical = False
            if warm_tables is None:
                warm_tables = run_scheme.engine.plan_tables
        best = min(elapsed_reps)
        best_elapsed[mode] = best
        entry = {
            "benchmark_mode": mode,
            "elapsed_s": best,
            "queries_per_s": query_count / best,
            "repetition_elapsed_s": elapsed_reps,
        }
        if reuse_tables and warm_tables is not None:
            entry["plan_tables_reused"] = len(warm_tables)
        runs.append(entry)

    return {
        "benchmark": "planner",
        "scheme": scheme,
        "query_count": query_count,
        "interarrival_s": interarrival_s,
        "seed": seed,
        "repetitions": repetitions,
        "python": platform.python_version(),
        "outcomes_identical": outcomes_identical,
        "speedup": {
            "batched_warm_vs_cold":
                best_elapsed["batched-cold"] / best_elapsed["batched-warm"],
        },
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
        description="Record the engine's planning throughput to "
                    "BENCH_planner.json")
    parser.add_argument("--queries", type=int, default=3000)
    parser.add_argument("--interarrival", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scheme", default="econ-cheap")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--history", default=None, metavar="DIR",
                        help="additionally append a bench-history record "
                             "(git sha + config hash + headline metrics) "
                             "to DIR/<benchmark>.jsonl for "
                             "'repro report --baseline'")
    args = parser.parse_args(argv)
    report = run_benchmark(
        query_count=args.queries, interarrival_s=args.interarrival,
        seed=args.seed, scheme=args.scheme, repetitions=args.repetitions,
    )
    path = write_report(report, args.output)
    if args.history:
        from repro.obs.history import append_bench_history

        history_path = append_bench_history(report, args.history)
        print(f"history appended to {history_path}")
    for run in report["runs"]:
        print(f"{run['benchmark_mode']:>12}: {run['elapsed_s']:.3f}s "
              f"({run['queries_per_s']:.0f} q/s)")
    print(f"warm vs cold: {report['speedup']['batched_warm_vs_cold']:.2f}x "
          f"(outcomes identical: {report['outcomes_identical']})")
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
