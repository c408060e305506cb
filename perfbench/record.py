"""Record the benchmark's reference digests and per-layer baseline.

Usage (from the repository root)::

    python3 perfbench/record.py digests     # rewrites perfbench/reference.json
    python3 perfbench/record.py baseline    # rewrites perfbench/baseline.json

``digests`` runs every workload once per recorded seed and stores the
SHA-256 of its stdout, after the same exit-code and conservation checks
the benchmark applies. Run it only on a commit whose output is the
reference: a later change that alters any table must fail against it.

``baseline`` runs the traced pass of every workload on the default seed
and stores its per-layer metrics, so a later change can name the layer
it moved against numbers taken on this commit.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import layers
import run
import workloads as workload_defs

DEFAULT_SEED = 0
#: Not used while tuning the benchmark; re-check claims on it.
HELD_OUT_SEED = 1009
#: Besides the two above, the seeds small enough that a run is likely
#: to be given one.
RECORDED_SEEDS = tuple(range(0, 11)) + (HELD_OUT_SEED,)


def record_digests() -> int:
    digests = {}
    for name, workload in workload_defs.WORKLOADS.items():
        digests[name] = {}
        for seed in RECORDED_SEEDS:
            item = run.invoke(workload_defs.command(workload, seed),
                              time.perf_counter() + run.RUN_DEADLINE_S)
            run.check(item, workload, None)
            run.describe(f"{name} seed {seed}", item)
            if item.errors:
                return 1
            digests[name][str(seed)] = item.digest
    with open(os.path.join(run.BENCH_DIR, "reference.json"), "w") as handle:
        json.dump({"default_seed": DEFAULT_SEED,
                   "held_out_seed": HELD_OUT_SEED,
                   "sha256": digests}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def record_baseline() -> int:
    reference = run.load_reference()
    baseline = {}
    for name, workload in workload_defs.WORKLOADS.items():
        passes = {}
        for jobs1 in ((False, True) if workload.in_process else (False,)):
            item, report = run.traced_pass(
                workload, DEFAULT_SEED, jobs1,
                time.perf_counter() + run.RUN_DEADLINE_S)
            run.check(item, workload,
                      reference.get(name, {}).get(str(DEFAULT_SEED)))
            run.describe(f"{name}{' --jobs 1' if jobs1 else ''}", item)
            if item.errors or report is None:
                return 1
            passes["in_process" if jobs1 else "traced"] = {
                "wall_s": item.wall_s,
                "coverage": layers.coverage(report, item.wall_s),
                "metrics": layers.layer_metrics(report),
            }
        baseline[name] = passes
    with open(os.path.join(run.BENCH_DIR, "baseline.json"), "w") as handle:
        json.dump({"seed": DEFAULT_SEED,
                   "machine": f"{os.cpu_count()} cores, "
                              f"Python {platform.python_version()}",
                   "workloads": baseline}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv) -> int:
    if argv == ["digests"]:
        return record_digests()
    if argv == ["baseline"]:
        return record_baseline()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
