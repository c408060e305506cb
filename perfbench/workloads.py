"""The benchmark's workloads: their command lines, sizes and checks.

Each workload is one batch simulation run as one CLI invocation (one
process plus, for ``market-shocks``, its pool workers). The benchmark's
seed is passed straight through as the workload's ``--seed``. Why each
workload was chosen, and which layer metrics should move on it, is in
``workloads.json`` next to this file.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Schemes in the order ``--schemes all`` runs them.
ALL_SCHEMES = ("bypass", "econ-col", "econ-cheap", "econ-fast")
#: Schemes with an economy (every one but the bypass baseline).
ECONOMIC_SCHEMES = ALL_SCHEMES[1:]

PAPER_GRID_QUERIES = 400
#: len(repro.constants.PAPER_INTERARRIVAL_TIMES_S); the benchmark process
#: itself never imports repro, only its child processes do.
PAPER_INTERARRIVALS = 4
TENANT_SCALE_TENANTS = 100_000
TENANT_SCALE_QUERIES = 2_000
SHOCK_TENANTS = 200
SHOCK_QUERIES = 200
SHOCK_SETTLEMENT_S = 11
SHOCK_PARTITIONS = 2
SHOCK_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the ``--workload`` name.
        entry: argv after the interpreter, with ``{seed}`` where the seed
            goes (a ``-m repro.cli`` subcommand or a benchmark script).
        queries: simulated query arrivals one invocation processes; the
            traced run re-counts them and must agree.
        check: extra output check; returns an error string or ``None``.
        in_process: argv overrides for the in-process (``--jobs 1``)
            traced pass, or ``None`` when the workload is in-process
            already.
    """

    name: str
    entry: Tuple[str, ...]
    queries: int
    check: Callable[[str], Optional[str]]
    in_process: Optional[Tuple[Tuple[str, str], ...]] = None

    def argv(self, seed: int, jobs1: bool = False) -> List[str]:
        """The invocation's argv after the interpreter."""
        args = [part.format(seed=seed) for part in self.entry]
        if jobs1:
            for flag, value in self.in_process or ():
                args[args.index(flag) + 1] = value
        return args


def no_check(stdout: str) -> Optional[str]:
    return None


def check_conservation(stdout: str) -> Optional[str]:
    """Every ``conservation:`` line must read ``exact``.

    The one exception is the bypass baseline, which has no economy and
    so nothing to conserve: its line must read exactly ``n/a``.
    """
    exact = 0
    for line in stdout.splitlines():
        if "VIOLATED" in line:
            return f"conservation violated: {line!r}"
        if "conservation:" not in line:
            continue
        if line == "bypass: conservation: n/a (no economy)":
            continue
        if "conservation: exact" not in line:
            return f"conservation line not exact: {line!r}"
        exact += 1
    # Per economic scheme: the plain audit line, the partitioned rerun's
    # audit line and its partition-table title.
    expected = 3 * len(ECONOMIC_SCHEMES)
    if exact != expected:
        return f"expected {expected} exact conservation lines, saw {exact}"
    return None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="paper-grid",
            entry=("perfbench/grid.py", "--seed", "{seed}",
                   "--queries", str(PAPER_GRID_QUERIES)),
            queries=len(ALL_SCHEMES) * PAPER_INTERARRIVALS * PAPER_GRID_QUERIES,
            check=no_check,
        ),
        Workload(
            name="tenant-scale",
            entry=("-m", "repro.cli", "tenants",
                   "--n-tenants", str(TENANT_SCALE_TENANTS),
                   "--queries", str(TENANT_SCALE_QUERIES),
                   "--seed", "{seed}"),
            queries=TENANT_SCALE_QUERIES,
            check=no_check,
        ),
        Workload(
            name="market-shocks",
            entry=("-m", "repro.cli", "shocks", "--schemes", "all",
                   "--n-tenants", str(SHOCK_TENANTS),
                   "--queries", str(SHOCK_QUERIES),
                   "--settlement-period", str(SHOCK_SETTLEMENT_S),
                   "--cache-partitions", str(SHOCK_PARTITIONS),
                   "--jobs", str(SHOCK_JOBS),
                   "--seed", "{seed}"),
            # A clean and a shocked cell per scheme, then the partitioned
            # rerun of each economic scheme's shocked cell.
            queries=(2 * len(ALL_SCHEMES) + len(ECONOMIC_SCHEMES))
            * SHOCK_QUERIES,
            check=check_conservation,
            in_process=(("--jobs", "1"),),
        ),
    )
}


def command(workload: Workload, seed: int, jobs1: bool = False) -> List[str]:
    """The full argv of one untraced invocation."""
    return [sys.executable] + workload.argv(seed, jobs1=jobs1)
