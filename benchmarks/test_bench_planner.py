"""Pytest wrapper around the planning-throughput benchmark.

Runs the real driver at a reduced size so the suite stays fast, then
checks the claims the committed ``BENCH_planner.json`` makes at the
headline size: every run is timed, warm runs reuse the cold run's plan
tables, and reusing them changes no outcome.
"""

from __future__ import annotations

import json
import os

from bench_planner import run_benchmark, write_report


def test_planner_speedup_report(output_dir):
    report = run_benchmark(query_count=400, repetitions=2)
    by_mode = {run["benchmark_mode"]: run for run in report["runs"]}

    assert set(by_mode) == {"batched-cold", "batched-warm"}
    for run in report["runs"]:
        assert run["elapsed_s"] > 0
        assert run["queries_per_s"] > 0
        assert len(run["repetition_elapsed_s"]) == 2

    # Warm plan tables are a cache: the outcome stream of every run
    # matches the first cold run step for step.
    assert report["outcomes_identical"]
    assert report["speedup"]["batched_warm_vs_cold"] > 0

    # Warm runs reuse the plan tables materialised by the cold run.
    assert by_mode["batched-warm"]["plan_tables_reused"] > 0

    path = write_report(report, os.path.join(output_dir, "BENCH_planner.json"))
    data = json.loads(open(path, encoding="utf-8").read())
    assert data["runs"]
