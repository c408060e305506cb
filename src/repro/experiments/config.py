"""Experiment profiles.

The paper's evaluation replays a million SDSS-like queries against a 2.5 TB
database. A pure-Python reproduction cannot afford a million queries per
(scheme, interval) cell, so the profiles sample the workload and compensate
in a documented way:

* ``query_count`` — how many queries each cell simulates.
* ``disk_duration_scale`` — time-proportional costs (disk storage, extra-node
  uptime) are multiplied by this factor so that the storage bill *per query*
  is comparable to the bill a full-length run would accumulate; the cached
  structures persist between the sampled queries in the real deployment, so
  the cloud keeps paying for them even though we do not simulate every query.
* the same workload seed is used for every scheme within a cell, so the
  schemes are compared on identical query streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro import constants
from repro.errors import ExperimentError
from repro.policies.factory import SCHEME_NAMES


@dataclass(frozen=True)
class ExperimentProfile:
    """Size and parameters of one evaluation sweep.

    Attributes:
        name: profile identifier used in report headers.
        query_count: queries simulated per (scheme, interval) cell.
        warmup_queries: initial queries excluded from the metrics.
        interarrival_times_s: the Figure 4/5 sweep values.
        schemes: which schemes to run (paper order).
        disk_duration_scale: multiplier on time-proportional costs (see the
            module docstring).
        database_bytes: back-end database size.
        seed: workload seed (identical across schemes within a cell).
    """

    name: str
    query_count: int = 8_000
    warmup_queries: int = 0
    interarrival_times_s: Tuple[float, ...] = constants.PAPER_INTERARRIVAL_TIMES_S
    schemes: Tuple[str, ...] = SCHEME_NAMES
    disk_duration_scale: float = 10.0
    database_bytes: int = constants.BACKEND_DATABASE_BYTES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.query_count <= 0:
            raise ExperimentError("query_count must be positive")
        if self.warmup_queries < 0 or self.warmup_queries >= self.query_count:
            raise ExperimentError(
                "warmup_queries must be non-negative and smaller than query_count"
            )
        if not self.interarrival_times_s:
            raise ExperimentError("at least one inter-arrival time is required")
        if any(value <= 0 for value in self.interarrival_times_s):
            raise ExperimentError("inter-arrival times must be positive")
        if not self.schemes:
            raise ExperimentError("at least one scheme is required")
        unknown = [name for name in self.schemes if name not in SCHEME_NAMES]
        if unknown:
            raise ExperimentError(f"unknown schemes: {unknown}")
        if self.disk_duration_scale <= 0:
            raise ExperimentError("disk_duration_scale must be positive")

    def with_overrides(self, **overrides) -> "ExperimentProfile":
        """Copy of the profile with some fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)


#: The profile used to produce EXPERIMENTS.md (closest to the paper setup the
#: hardware budget allows).
PAPER_PROFILE = ExperimentProfile(name="paper", query_count=8_000)

#: A profile small enough for benchmarks that still shows the figure shapes.
BENCH_PROFILE = ExperimentProfile(name="bench", query_count=5_000)

#: A tiny profile for integration tests; the absolute numbers are not
#: meaningful at this size, only that the machinery runs end to end.
QUICK_PROFILE = ExperimentProfile(
    name="quick",
    query_count=400,
    interarrival_times_s=(1.0, 60.0),
)
