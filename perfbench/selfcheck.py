"""Self-check of the benchmark's tracing and measurement.

Usage (from the repository root; takes about two minutes)::

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

For every workload (or the ones named) it runs one untraced invocation
and two traced runs, and checks that:

* traced stdout is byte-identical to untraced stdout;
* named layer self-times cover at least 95% of traced wall time;
* every count repeats exactly across the two traced runs, and the
  counted queries match the number the workload declares;
* ``workloads.json`` records the argv and query count of every workload;
* on ``tenant-scale``, a single process, the sampled process-tree peak
  RSS and the kernel's ``ru_maxrss`` agree within 5%.

It prints the tracing overhead (traced minus untraced wall) per workload
and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import layers
import run
import workloads as workload_defs

MIN_COVERAGE = 0.95
#: Per workload: one untraced and up to four traced invocations.
DEADLINE_S = 600.0
RSS_AGREEMENT = 0.05


def check_record() -> list:
    """``workloads.json`` must describe the workloads ``workloads.py`` runs."""
    with open(os.path.join(run.BENCH_DIR, "workloads.json")) as handle:
        recorded = json.load(handle)["workloads"]
    problems = []
    for name, workload in workload_defs.WORKLOADS.items():
        entry = recorded.get(name, {})
        if entry.get("argv") != list(workload.entry):
            problems.append(f"workloads.json argv of {name} is stale")
        if entry.get("queries") != workload.queries:
            problems.append(f"workloads.json queries of {name} is stale")
    return problems


def check_workload(workload: workload_defs.Workload, seed: int) -> list:
    problems = []
    deadline = time.perf_counter() + DEADLINE_S
    plain = run.invoke(workload_defs.command(workload, seed), deadline)
    run.check(plain, workload,
              run.load_reference().get(workload.name, {}).get(str(seed)))
    run.describe(f"{workload.name} untraced", plain)
    problems += [f"untraced: {error}" for error in plain.errors]
    digest = plain.digest
    if workload.name == "tenant-scale":
        gap = abs(plain.tree_rss_bytes / plain.max_proc_rss_bytes - 1)
        run.log(f"{workload.name}: tree rss vs max proc rss differ by "
                f"{gap:.2%}")
        if gap > RSS_AGREEMENT:
            problems.append(f"tree rss and ru_maxrss differ by {gap:.2%}")
    passes = [False] + ([True] if workload.in_process else [])
    for jobs1 in passes:
        label = "in-process" if jobs1 else "traced"
        if jobs1:
            # Overhead of the --jobs 1 pass is against an untraced --jobs 1.
            plain = run.invoke(
                workload_defs.command(workload, seed, jobs1=True), deadline)
            run.check(plain, workload, digest)
            run.describe(f"{workload.name} untraced --jobs 1", plain)
            problems += [f"untraced --jobs 1: {error}"
                         for error in plain.errors]
        counts = []
        for attempt in (1, 2):
            item, report = run.traced_pass(workload, seed, jobs1, deadline)
            run.check(item, workload, digest)
            run.describe(f"{workload.name} {label} #{attempt}", item)
            problems += [f"{label} #{attempt}: {error}"
                         for error in item.errors]
            if report is None:
                problems.append(f"{label} #{attempt}: no layer report")
                continue
            coverage = layers.coverage(report, item.wall_s)
            run.log(f"{workload.name} {label} #{attempt}: coverage "
                    f"{coverage:.4f}, tracing overhead "
                    f"{item.wall_s - plain.wall_s:+.3f} s "
                    f"({item.wall_s / plain.wall_s - 1:+.2%})")
            if coverage < MIN_COVERAGE:
                problems.append(f"{label} #{attempt}: coverage "
                                f"{coverage:.4f} < {MIN_COVERAGE}")
            counts.append(report["counts"])
        if len(counts) == 2 and counts[0] != counts[1]:
            differing = sorted(name for name in set(counts[0]) | set(counts[1])
                               if counts[0].get(name) != counts[1].get(name))
            problems.append(f"{label}: counts differ between traced runs: "
                            f"{differing}")
        split = jobs1 or not workload.in_process
        if counts and split:
            counted = counts[0].get("workload.queries", 0)
            if counted != workload.queries:
                problems.append(f"{label}: counted {counted} queries, "
                                f"declared {workload.queries}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="selfcheck.py",
                                     description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    names = args.workloads or list(workload_defs.WORKLOADS)
    unknown = sorted(set(names) - set(workload_defs.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from "
                     f"{sorted(workload_defs.WORKLOADS)}")
    problems = check_record()
    for problem in problems:
        run.log(f"FAIL: {problem}")
    failed = bool(problems)
    for name in names:
        problems = check_workload(workload_defs.WORKLOADS[name], args.seed)
        for problem in problems:
            run.log(f"FAIL {name}: {problem}")
        run.log(f"{name}: {'FAIL' if problems else 'ok'}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
