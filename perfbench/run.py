"""The repository benchmark: run one workload, check it, report metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs whole workload
invocations (one CLI process each, exactly as a user would), with two
set-up probes before each, until ``--seconds`` have passed, and reports
medians. ``--trace 1`` runs the workload once untraced and once
under ``perfbench/traced.py``, which times calls into each layer's public
functions, and reports the per-layer metrics.

Every invocation is an operation. It fails when its exit code is not 0,
when its stdout differs from the reference SHA-256 recorded for the
workload and seed in ``reference.json`` (for a seed without a reference,
from the stdout of the run's first invocation), or when the workload's
own output check fails (every ``conservation:`` line reads ``exact``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import layers
import workloads as workload_defs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: How often the process-tree RSS sampler reads ``/proc``.
RSS_SAMPLE_INTERVAL_S = 0.01
#: Set-up probes per run, at least, and per workload invocation; the
#: median is reported.
SETUP_PROBES = 8
PROBES_PER_INVOCATION = 2
#: Workload invocations per ``--trace 0`` run, at least.
MIN_INVOCATIONS = 3
#: Every child still running this long after the run started is killed
#: (with its pool workers), so a run ends well within three minutes.
RUN_DEADLINE_S = 160.0
MIB = 1024.0 * 1024.0

#: The set-up probe: import the CLI and build a ``CloudSystem``, then
#: say so on stdout. Set-up time runs from process start to that line.
SETUP_PROBE = ("import repro.cli\n"
               "from repro.system import CloudSystem\n"
               "CloudSystem()\n"
               "print('ready', flush=True)\n")


def child_env() -> Dict[str, str]:
    """The environment of every child: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


# -- process-tree measurement -------------------------------------------------


def _descendants(pid: int) -> Set[int]:
    """``pid`` and every live descendant, from ``/proc/<pid>/task/*/children``."""
    found = {pid}
    pending = [pid]
    while pending:
        parent = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    children = handle.read().split()
            except OSError:
                continue
            for child in children:
                child_pid = int(child)
                if child_pid not in found:
                    found.add(child_pid)
                    pending.append(child_pid)
    return found


def _rss_bytes(pid: int) -> int:
    """``VmRSS`` of one process from ``/proc/<pid>/status`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class TreeRssSampler(threading.Thread):
    """Samples the summed RSS of a process and its descendants."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self._pid = pid
        self._halt = threading.Event()
        self.peak_bytes = 0
        self.samples = 0

    def run(self) -> None:
        while not self._halt.is_set():
            total = sum(_rss_bytes(pid) for pid in _descendants(self._pid))
            self.peak_bytes = max(self.peak_bytes, total)
            self.samples += 1
            self._halt.wait(RSS_SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        self._halt.set()
        self.join()


@dataclass
class Invocation:
    """What one measured child process did."""

    wall_s: float
    cpu_s: float
    max_proc_rss_bytes: int
    tree_rss_bytes: int
    rss_samples: int
    exit_code: int
    stdout: str
    digest: str
    errors: List[str] = field(default_factory=list)


class Watchdog:
    """Kills a child's whole process group once ``deadline`` passes.

    Children run in their own session, so their pool workers share the
    group and die with them; nothing the benchmark starts outlives it.
    """

    def __init__(self, process: subprocess.Popen, deadline: float) -> None:
        self.fired = False
        self._process = process
        self._timer = threading.Timer(
            max(0.0, deadline - time.perf_counter()), self._kill)
        self._timer.start()

    def _kill(self) -> None:
        self.fired = True
        try:
            os.killpg(self._process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def cancel(self) -> None:
        self._timer.cancel()


def spawn(argv: List[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)


def invoke(argv: List[str], deadline: float,
           stamp_spawn: bool = False) -> Invocation:
    """Run one child to completion, measuring it from outside.

    ``wait4`` gives the child's CPU time and ``ru_maxrss`` including its
    reaped descendants (``RUSAGE_CHILDREN`` scoped to this one child).
    The child is killed if it is still running at ``deadline``
    (``perf_counter`` time). ``stamp_spawn`` tells a traced child when it
    was spawned.
    """
    env = child_env()
    started = time.perf_counter()
    if stamp_spawn:
        env["PERFBENCH_SPAWNED"] = repr(started)
    process = spawn(argv, env)
    watchdog = Watchdog(process, deadline)
    sampler = TreeRssSampler(process.pid)
    sampler.start()
    try:
        out = process.stdout.read()
        _, status, usage = os.wait4(process.pid, 0)
        wall_s = time.perf_counter() - started
    finally:
        watchdog.cancel()
        sampler.stop()
        process.stdout.close()
    # The child is reaped by wait4 above; tell Popen so it never waits again.
    process.returncode = os.waitstatus_to_exitcode(status)
    item = Invocation(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_proc_rss_bytes=usage.ru_maxrss * 1024,
        tree_rss_bytes=sampler.peak_bytes,
        rss_samples=sampler.samples,
        exit_code=process.returncode,
        stdout=out.decode("utf-8", errors="replace"),
        digest=hashlib.sha256(out).hexdigest(),
    )
    if watchdog.fired:
        item.errors.append("killed at the run's deadline")
    return item


def setup_probe(deadline: float) -> Optional[float]:
    """Seconds from spawning the probe until it has built a CloudSystem,
    or ``None`` if the probe failed."""
    started = time.perf_counter()
    process = spawn([sys.executable, "-c", SETUP_PROBE], child_env())
    watchdog = Watchdog(process, deadline)
    try:
        line = process.stdout.readline()
        ready_s = time.perf_counter() - started
        process.stdout.read()
        process.stdout.close()
        code = process.wait()
    finally:
        watchdog.cancel()
    if code != 0 or line.strip() != b"ready":
        log(f"set-up probe failed (exit {code})")
        return None
    return ready_s


# -- correctness ---------------------------------------------------------------


def load_reference() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(BENCH_DIR, "reference.json")) as handle:
        return json.load(handle)["sha256"]


def check(invocation: Invocation, workload: workload_defs.Workload,
          expected_digest: Optional[str]) -> None:
    """Record every way the invocation failed in ``invocation.errors``."""
    if invocation.exit_code != 0:
        invocation.errors.append(f"exit code {invocation.exit_code}")
    if expected_digest is not None and invocation.digest != expected_digest:
        invocation.errors.append(
            f"stdout sha256 {invocation.digest} != {expected_digest}")
    problem = workload.check(invocation.stdout)
    if problem is not None:
        invocation.errors.append(problem)


def log(message: str) -> None:
    print(message, flush=True)


def describe(label: str, item: Invocation) -> None:
    log(f"{label}: wall {item.wall_s:.3f} s, cpu {item.cpu_s:.3f} s, "
        f"tree rss {item.tree_rss_bytes / MIB:.1f} MiB "
        f"({item.rss_samples} samples every {RSS_SAMPLE_INTERVAL_S} s), "
        f"max proc rss {item.max_proc_rss_bytes / MIB:.1f} MiB, "
        f"sha256 {item.digest[:16]}"
        + (f", FAILED: {'; '.join(item.errors)}" if item.errors else ""))


# -- the two run kinds ---------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run_end_to_end(workload: workload_defs.Workload, seed: int,
                   seconds: float, reference: Optional[str],
                   deadline: float) -> Optional[dict]:
    argv = workload_defs.command(workload, seed)
    log(f"workload {workload.name}: {' '.join(argv[1:])}")
    setups: List[Optional[float]] = []
    invocations: List[Invocation] = []
    started = time.perf_counter()

    def probe() -> None:
        setups.append(setup_probe(deadline))
        log(f"setup probe {len(setups)}: {setups[-1]} s")

    # Set-up probes are interleaved with the invocations so both sample
    # the whole run rather than one stretch of it.
    while ((len(invocations) < MIN_INVOCATIONS
            or time.perf_counter() - started < seconds)
           and time.perf_counter() < deadline):
        for _ in range(PROBES_PER_INVOCATION):
            probe()
        item = invoke(argv, deadline)
        # Without a recorded reference the first invocation is the
        # reference: every repetition must reproduce it byte for byte.
        check(item, workload,
              reference or (invocations[0].digest if invocations else None))
        describe(f"invocation {len(invocations) + 1}", item)
        invocations.append(item)
    while len(setups) < SETUP_PROBES and time.perf_counter() < deadline:
        probe()
    ready = [value for value in setups if value is not None]
    if not invocations or not ready:
        return None
    failed = sum(1 for item in invocations if item.errors)
    median = statistics.median
    return {
        "correct": failed == 0 and len(ready) == len(setups),
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {
            "setup_s": metric(median(ready), "s"),
            "wall_s": metric(median(i.wall_s for i in invocations), "s"),
            "queries_per_s": metric(
                median(workload.queries / i.wall_s for i in invocations),
                "1/s"),
            "cpu_s": metric(median(i.cpu_s for i in invocations), "s"),
            "tree_rss_mib": metric(
                median(i.tree_rss_bytes / MIB for i in invocations), "MiB"),
            "max_proc_rss_mib": metric(
                median(i.max_proc_rss_bytes / MIB for i in invocations),
                "MiB"),
        },
    }


def traced_pass(workload: workload_defs.Workload, seed: int,
                jobs1: bool, deadline: float) -> tuple:
    """One traced invocation; returns it and the layer report it wrote."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"layers-{os.getpid()}-{'jobs1' if jobs1 else 'main'}.json")
    argv = ([sys.executable, os.path.join("perfbench", "traced.py"),
             "--out", out_path, "--"] + workload.argv(seed, jobs1=jobs1))
    item = invoke(argv, deadline, stamp_spawn=True)
    report = None
    if os.path.exists(out_path):
        with open(out_path) as handle:
            report = json.load(handle)
        os.remove(out_path)
    return item, report


def run_traced(workload: workload_defs.Workload, seed: int,
               reference: Optional[str], deadline: float) -> dict:
    plain = invoke(workload_defs.command(workload, seed), deadline)
    check(plain, workload, reference)
    items = [plain]
    reports = {}
    for jobs1 in (False, True) if workload.in_process else (False,):
        item, report = traced_pass(workload, seed, jobs1, deadline)
        # Tracing observes only: stdout must match the untraced bytes.
        check(item, workload, reference or plain.digest)
        if report is None:
            item.errors.append("traced runner wrote no layer report")
        else:
            reports[jobs1] = (item, report)
            log(f"traced{' --jobs 1' if jobs1 else ''}: named layer "
                f"self-times cover {layers.coverage(report, item.wall_s):.4f}"
                f" of traced wall")
        items.append(item)
    # The in-process pass, when there is one, splits the work by layer;
    # its query count must be the workload's declared count.
    split = reports.get(True, reports.get(False))
    if split is not None:
        counted = split[1]["counts"].get("workload.queries", 0)
        if counted != workload.queries:
            split[0].errors.append(f"traced run counted {counted} queries, "
                                   f"the workload declares {workload.queries}")
    for label, item in zip(("untraced", "traced", "traced --jobs 1"), items):
        describe(label, item)
    failed = sum(1 for item in items if item.errors)
    metrics: Dict[str, Dict[str, object]] = {}
    if len(reports) == len(items) - 1:
        traced_item, traced_report = reports[False]
        log(f"tracing overhead: {traced_item.wall_s - plain.wall_s:.3f} s "
            f"({traced_item.wall_s / plain.wall_s - 1:.2%} of untraced wall)")
        values = layers.layer_metrics(split[1])
        # Pool waits and pickled task bytes exist only in the fanned-out
        # run; every other layer comes from the in-process pass.
        for name, value in layers.layer_metrics(traced_report).items():
            if name in layers.POOL_METRICS:
                values[name] = value
        metrics = {name: metric(values[name], unit)
                   for name, unit in layers.PER_LAYER_UNITS.items()}
    return {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workload_defs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}; "
              f"run the benchmark from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = workload_defs.WORKLOADS[args.workload]
    reference = load_reference().get(args.workload, {}).get(str(args.seed))
    log(f"reference sha256 for seed {args.seed}: "
        f"{reference or 'none recorded; runs must agree with each other'}")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if args.trace:
        result = run_traced(workload, args.seed, reference, deadline)
    else:
        result = run_end_to_end(workload, args.seed, args.seconds, reference,
                                deadline)
    if result is None:
        print("error: no invocation or set-up probe completed",
              file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
