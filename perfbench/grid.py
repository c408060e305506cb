"""The ``paper-grid`` workload: the Figure 4/5 evaluation as one process.

Runs all four schemes over the paper's inter-arrival times on the
SDSS-like workload through the same public functions the ``figure4``,
``figure5`` and ``headline`` subcommands use (``run_grid`` plus the table
functions), with a seeded profile and default planning, and prints the
three tables from the one grid::

    PYTHONPATH=src python3 perfbench/grid.py --seed 0 --queries 400

The ``headline`` subcommand has no ``--seed`` flag (its profiles pin seed
0), which is why the benchmark drives the grid through this script.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro import constants
from repro.experiments import (
    ExperimentProfile,
    figure4_table,
    figure5_table,
    run_grid,
)
from repro.experiments.headline import headline_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grid.py", description=__doc__)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: 0)")
    parser.add_argument("--queries", type=int, default=400,
                        help="queries per (scheme, interval) cell "
                             "(default: 400)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profile = ExperimentProfile(
        name="paper-grid",
        query_count=args.queries,
        interarrival_times_s=constants.PAPER_INTERARRIVAL_TIMES_S,
        seed=args.seed,
    )
    grid = run_grid(profile)
    print(figure4_table(grid=grid))
    print()
    print(figure5_table(grid=grid))
    print()
    print(headline_table(grid=grid))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
