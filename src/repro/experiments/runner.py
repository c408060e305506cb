"""The (scheme x inter-arrival time) grid runner shared by Figures 4 and 5,
and :func:`map_cells`, the one fan-out every experiment uses.

Cells are independent — every cell builds its scheme fresh and replays a
deterministic workload — so experiments are embarrassingly parallel:
:func:`map_cells` fans cells out over a ``ProcessPoolExecutor`` when asked
for more than one job, and the parallel path returns cell-for-cell
identical results to the sequential one (same profile, same seeds, same
order), with the same warnings.
"""

from __future__ import annotations

import functools
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclasses_field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.costmodel.config import CostModelConfig
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentProfile
from repro.simulator.metrics import MetricsSummary
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.system import CloudSystem, CloudSystemConfig
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

#: The registry pooled cells' warnings are re-emitted through, shared by
#: every :func:`map_cells` call: a "default" filter then shows a warning
#: that several cells (or several fan-outs of one run) raise from one
#: place once, as a sequential run does. ``warnings`` clears it whenever
#: the filters change.
_POOLED_WARNINGS: Dict = {}


def map_cells(fn: Callable, cells: Iterable,
              jobs: Optional[int] = None) -> List:
    """``[fn(cell) for cell in cells]``, fanned over ``jobs`` processes.

    With one job or one cell the cells run in process. Otherwise they run
    on a ``ProcessPoolExecutor`` (``fn`` and the cells must pickle); results
    come back in ``cells`` order, and each worker records its cell's
    warnings, which are re-emitted here in cell order, so callers see the
    same results and the same warnings either way.

    Raises:
        ExperimentError: ``cells`` is empty or ``jobs`` is below 1.
    """
    cells = list(cells)
    if not cells:
        raise ExperimentError("at least one cell is required")
    worker_count = 1 if jobs is None else int(jobs)
    if worker_count < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if worker_count == 1 or len(cells) == 1:
        return [fn(cell) for cell in cells]
    with ProcessPoolExecutor(
            max_workers=min(worker_count, len(cells))) as executor:
        outputs = list(executor.map(functools.partial(_recording, fn),
                                    cells))
    for _, caught in outputs:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=_POOLED_WARNINGS)
    return [result for result, _ in outputs]


def _recording(fn: Callable, cell) -> Tuple[object, Tuple[tuple, ...]]:
    """Pool entry point: ``fn(cell)`` plus the warnings it raised, as
    ``(message, category, filename, lineno)`` tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(cell)
    return result, tuple(
        (entry.message, entry.category, entry.filename, entry.lineno)
        for entry in caught)


@dataclass(frozen=True)
class CellResult:
    """Result of one (scheme, inter-arrival time) cell.

    ``trace`` carries the cell's recorder when the grid ran traced
    (source-tagged ``scheme@interval``; absorbed by :func:`run_grid`
    into the caller's recorder) and is excluded from equality so traced
    grids compare cell-for-cell identical to untraced ones.
    """

    scheme: str
    interarrival_s: float
    summary: MetricsSummary
    trace: Optional[object] = dataclasses_field(default=None, compare=False)


class ExperimentGrid:
    """All cell results of one profile, addressable by scheme and interval."""

    def __init__(self, profile: ExperimentProfile,
                 cells: Iterable[CellResult]) -> None:
        self._profile = profile
        self._cells: Dict[Tuple[str, float], CellResult] = {}
        for cell in cells:
            self._cells[(cell.scheme, cell.interarrival_s)] = cell

    @property
    def profile(self) -> ExperimentProfile:
        """The profile the grid was produced with."""
        return self._profile

    @property
    def cells(self) -> Tuple[CellResult, ...]:
        """All cells, in insertion order."""
        return tuple(self._cells.values())

    def cell(self, scheme: str, interarrival_s: float) -> CellResult:
        """One cell, or raise :class:`ExperimentError` if it was not run."""
        try:
            return self._cells[(scheme, interarrival_s)]
        except KeyError:
            raise ExperimentError(
                f"no cell for scheme={scheme!r}, interarrival={interarrival_s}"
            ) from None

    def metric(self, scheme: str, interarrival_s: float,
               accessor: Callable[[MetricsSummary], float]) -> float:
        """Extract one metric from one cell."""
        return accessor(self.cell(scheme, interarrival_s).summary)

    def series(self, scheme: str,
               accessor: Callable[[MetricsSummary], float]) -> List[float]:
        """One metric across the interval sweep, in profile order."""
        return [
            self.metric(scheme, interval, accessor)
            for interval in self._profile.interarrival_times_s
        ]


def build_system(profile: ExperimentProfile) -> CloudSystem:
    """Assemble the cloud system an experiment profile calls for."""
    cost_model = CostModelConfig(disk_duration_scale=profile.disk_duration_scale)
    return CloudSystem(CloudSystemConfig(
        database_bytes=profile.database_bytes,
        cost_model=cost_model,
    ))


def run_cell(system: CloudSystem, profile: ExperimentProfile, scheme_name: str,
             interarrival_s: float,
             workload_spec: Optional[WorkloadSpec] = None,
             trace: bool = False) -> CellResult:
    """Run one (scheme, interval) cell against a prepared system.

    With ``trace=True`` the cell records into its own
    :class:`~repro.obs.trace.TraceRecorder` (source ``scheme@interval``)
    attached under the zero-perturbation contract; the recorder rides
    the returned :class:`CellResult` for the grid to absorb.
    """
    spec = workload_spec or WorkloadSpec(
        query_count=profile.query_count,
        interarrival_s=interarrival_s,
        seed=profile.seed,
    )
    workload = WorkloadGenerator(spec.with_interarrival(interarrival_s)).generate()
    scheme = system.scheme(scheme_name)
    observers = []
    recorder = None
    if trace:
        from repro.obs.metrics import attach_observability
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder(
            source=f"{scheme_name}@{interarrival_s:g}")
        observers = attach_observability(scheme, trace=recorder)
    simulation = CloudSimulation(
        scheme, SimulationConfig(warmup_queries=profile.warmup_queries)
    )
    result = simulation.run(workload, observers=observers)
    return CellResult(
        scheme=scheme_name,
        interarrival_s=interarrival_s,
        summary=result.summary,
        trace=recorder,
    )


#: Keyed, bounded grid cache: profiles are frozen (hashable) dataclasses, so
#: Figure 4, Figure 5 and the headline ratios — which all read the same grid —
#: only pay for the simulations once. The bound keeps long-lived sessions
#: (sweeping many profiles) from holding every grid ever computed.
_GRID_CACHE: "OrderedDict[ExperimentProfile, ExperimentGrid]" = OrderedDict()
_GRID_CACHE_MAX_ENTRIES = 8


def _cache_grid(profile: ExperimentProfile, grid: ExperimentGrid) -> None:
    """Insert a grid, evicting the least recently used entry past the bound."""
    _GRID_CACHE[profile] = grid
    _GRID_CACHE.move_to_end(profile)
    while len(_GRID_CACHE) > _GRID_CACHE_MAX_ENTRIES:
        _GRID_CACHE.popitem(last=False)


def _run_cell_task(task: Tuple[ExperimentProfile, str, float, bool]
                   ) -> CellResult:
    """One grid cell, in process or on a pool worker.

    Each cell assembles its own :class:`CloudSystem` (about a millisecond);
    the system is a deterministic function of the profile, so per-cell
    assembly cannot change any result. Traced cells carry their recorder
    back through the result pickle (recorders are plain picklable data).
    """
    profile, scheme_name, interarrival_s, trace = task
    return run_cell(build_system(profile), profile, scheme_name,
                    interarrival_s, trace=trace)


def run_grid(profile: ExperimentProfile, use_cache: bool = True,
             jobs: Optional[int] = None, trace=None) -> ExperimentGrid:
    """Run the full (scheme x interval) grid for a profile.

    Args:
        profile: what to run.
        use_cache: reuse (and populate) the per-process grid cache.
        jobs: worker processes to fan the cells out over
            (:func:`map_cells`); ``None`` or 1 runs sequentially
            in-process. The parallel path produces cell-for-cell
            identical results (the cells are independent and
            individually deterministic).
        trace: optional :class:`~repro.obs.trace.TraceRecorder` the grid
            records into — every cell runs its own source-tagged
            recorder (``scheme@interval``), absorbed here in cell order,
            so the sequential and parallel traced grids emit the same
            lines. Traced grids bypass the cache (cached grids carry no
            recorders) and are not cached; the tables stay
            byte-identical either way.
    """
    traced = trace is not None
    if use_cache and not traced and profile in _GRID_CACHE:
        _GRID_CACHE.move_to_end(profile)
        return _GRID_CACHE[profile]
    tasks = [
        (profile, scheme_name, interarrival, traced)
        for interarrival in profile.interarrival_times_s
        for scheme_name in profile.schemes
    ]
    # map_cells keeps task order, so the grid's insertion order — and
    # therefore every table — is the same at any job count.
    cells = map_cells(_run_cell_task, tasks, jobs)
    if traced:
        for cell in cells:
            if cell.trace is not None:
                trace.absorb(cell.trace)
    grid = ExperimentGrid(profile, cells)
    if use_cache and not traced:
        _cache_grid(profile, grid)
    return grid


def clear_grid_cache() -> None:
    """Drop all cached grids (used by tests)."""
    _GRID_CACHE.clear()
