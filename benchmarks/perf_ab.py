"""Same-runner perf A/B: this checkout against a base commit.

Usage (from anywhere in the candidate checkout)::

    python benchmarks/perf_ab.py BASE [WORKLOAD ...]

``BASE`` is any commit git resolves (``HEAD^``, a sha, a merge-base);
the workloads default to every workload in ``BENCHMARK.json``. The base
commit is checked out into a temporary ``git worktree`` and given this
checkout's ``perfbench/`` (``run.py`` resolves ``src/`` next to its own
directory), so both sides run the same harness over their own sources.
Each workload runs ``perfbench/run.py --seed 0 --seconds 5 --trace 0``
in ``PAIRS`` alternating base/candidate pairs.

The verdict (:func:`decide`) fails a workload when, for any
``end_to_end`` metric of ``BENCHMARK.json``, the candidate's median is
worse than the base median in the metric's ``better`` direction by more
than ``max(bound, 3 x the base runs' IQR / base median)``; or when a
candidate run is not ``correct``; or when the candidate's share of
failed operations is larger. A failing workload then gets one
``--trace 1`` pass per side and a per-layer self-time delta table,
largest ``|delta|`` first, so the log names the layer that moved.

Results go to ``.perfbench/perf_ab.json`` (every run, the verdicts and
the layer rows) and ``.perfbench/perf_ab_layers.txt``. Exit status: 0
when every workload passes, 1 on a regression, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
PAIRS = 5
IQR_FACTOR = 3.0
RUN_ARGS = ("--seed", "0", "--seconds", "5")


def _median_iqr(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return statistics.median(values), 0.0
    quartiles = statistics.quantiles(values, n=4)
    return statistics.median(values), quartiles[2] - quartiles[0]


def _failed_share(runs: Sequence[Mapping]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def decide(end_to_end: Sequence[Mapping], base: Sequence[Mapping],
           candidate: Sequence[Mapping]) -> Dict[str, object]:
    """The A/B verdict over per-pair ``run.py`` results of one workload.

    Returns ``{"failures": [...], "metrics": {name: row}}``; an empty
    failure list is a pass.
    """
    failures: List[str] = []
    rows: Dict[str, Dict[str, float]] = {}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        if better not in ("lower", "higher"):
            raise ValueError(f"{name}: unknown direction {better!r}")
        sides = [[run["metrics"][name]["value"] for run in runs
                  if name in run["metrics"]] for runs in (base, candidate)]
        if not all(sides):
            continue
        (base_med, base_iqr), (cand_med, cand_iqr) = map(_median_iqr, sides)
        worse = (cand_med - base_med) / base_med
        if better == "higher":
            worse = -worse
        threshold = max(spec["bound"], IQR_FACTOR * base_iqr / base_med)
        rows[name] = {"base": base_med, "base_iqr": base_iqr,
                      "candidate": cand_med, "candidate_iqr": cand_iqr,
                      "worse": worse, "threshold": threshold}
        if worse > threshold:
            failures.append(f"{name}: {base_med:.4g} -> {cand_med:.4g} "
                            f"({worse:+.1%} worse, threshold {threshold:.1%})")
    for index, run in enumerate(candidate):
        if not run["correct"]:
            failures.append(f"candidate run {index + 1} is not correct")
    if _failed_share(candidate) > _failed_share(base):
        failures.append(f"failed-operation share {_failed_share(base):.1%} "
                        f"-> {_failed_share(candidate):.1%}")
    return {"failures": failures, "metrics": rows}


def layer_rows(per_layer: Sequence[Mapping], base: Mapping,
               candidate: Mapping) -> List[Dict[str, object]]:
    """Per-layer self-time deltas (seconds), largest ``|delta|`` first;
    layers idle on both sides are left out."""
    rows = []
    for spec in per_layer:
        name = spec["name"]
        if spec["unit"] == "s" and name in base and name in candidate:
            old, new = base[name]["value"], candidate[name]["value"]
            if old or new:
                rows.append({"metric": name, "base": old, "candidate": new,
                             "delta": new - old})
    return sorted(rows, key=lambda row: -abs(row["delta"]))


def _run(root: str, workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, *RUN_ARGS, "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        return json.loads(completed.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def _ab(spec: Mapping, base_root: str, workloads: Sequence[str]) -> dict:
    report: Dict[str, object] = {"workloads": {}, "layers": {}}
    table: List[str] = []
    for workload in workloads:
        runs: Dict[str, List[dict]] = {"base": [], "candidate": []}
        for pair in range(PAIRS):
            for side, root in (("base", base_root), ("candidate", ROOT)):
                runs[side].append(_run(root, workload, trace=0))
            print(f"{workload}: pair {pair + 1}/{PAIRS} done", flush=True)
        verdict = decide(spec["end_to_end"], runs["base"], runs["candidate"])
        report["workloads"][workload] = {**runs, **verdict}
        print(f"\n{workload}: {'FAIL' if verdict['failures'] else 'pass'}")
        print(f"  {'metric':<18}{'base (IQR)':>22}{'candidate (IQR)':>22}"
              f"{'worse':>9}{'limit':>8}")
        for name, row in verdict["metrics"].items():
            cells = [f"{row[side]:.4g} ({row[side + '_iqr']:.2g})"
                     for side in ("base", "candidate")]
            print(f"  {name:<18}{cells[0]:>22}{cells[1]:>22}"
                  f"{row['worse']:>+9.1%}{row['threshold']:>8.1%}")
        for failure in verdict["failures"]:
            print(f"  FAIL {failure}")
        if verdict["failures"]:
            traced = [_run(root, workload, trace=1)["metrics"]
                      for root in (base_root, ROOT)]
            rows = layer_rows(spec["per_layer"], *traced)
            report["layers"][workload] = rows
            table.append(f"{workload}: per-layer self time, base -> "
                         f"candidate (s), largest |delta| first")
            table.extend(f"  {row['metric']:<34}{row['base']:>9.3f}"
                         f"{row['candidate']:>9.3f}{row['delta']:>+9.3f}"
                         for row in rows)
    if table:
        print("\n" + "\n".join(table))
    with open(os.path.join(OUT_DIR, "perf_ab_layers.txt"), "w") as handle:
        handle.write("\n".join(table) + "\n")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_ab.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="base commit to compare against")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="workloads to run (default: all)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    known = [workload["name"] for workload in spec["workloads"]]
    unknown = sorted(set(args.workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    try:
        base = _git("rev-parse", "--verify", "--quiet",
                    f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"{args.base!r} is not a commit")
    print(f"base {base}, candidate {_git('rev-parse', 'HEAD')} "
          f"({'dirty' if _git('status', '--porcelain') else 'clean'} tree)")
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as scratch:
        base_root = os.path.join(scratch, "base")
        _git("worktree", "add", "--detach", base_root, base)
        try:
            shutil.rmtree(os.path.join(base_root, "perfbench"),
                          ignore_errors=True)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(base_root, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            # Byte-compile both sides so neither pays it inside a run.
            for root in (base_root, ROOT):
                subprocess.run([sys.executable, "-m", "compileall", "-q",
                                "src", "perfbench"], cwd=root, check=True,
                               stdout=subprocess.DEVNULL)
            report = _ab(spec, base_root, args.workloads or known)
        finally:
            _git("worktree", "remove", "--force", base_root)
    failed = [name for name, entry in report["workloads"].items()
              if entry["failures"]]
    report.update(base=base, pairs=PAIRS, failed=failed)
    with open(os.path.join(OUT_DIR, "perf_ab.json"), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\nperf A/B: " + (f"FAIL on {', '.join(failed)}" if failed
                            else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
