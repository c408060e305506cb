"""Epoch-level batch scheduling for the vectorized planner.

The :class:`BatchScheduler` sits between the simulator and the engine's
per-query pipeline: :meth:`BatchScheduler.prime` receives the upcoming
arrivals (once per run, or once per partition epoch in the distributed
runner) and splits them into **epochs** at settlement boundaries, and
:meth:`BatchScheduler.extend` queues more arrivals behind them without
touching what is already primed (a streamed run hands over each slice of
its lookahead window this way). When the engine asks for the first query
of an unevaluated epoch, every template's batch across as many
consecutive epochs as fit in the memory bound is scored in one
vectorized pass (:func:`repro.costmodel.vectorized.evaluate_plan_table`)
and the per-query results are handed out as the queries arrive. A query
nobody primed (a direct ``process_query`` call, a query id seen twice)
is scored on demand as a one-query block, leaving the primed window as
it is.

Only *execution estimates* are precomputed this way — they depend on the
query instance and the immutable cost model alone, never on cache state,
so scoring ahead of time is exact. Pricing against the mutable cache
(amortisation charges, accrued maintenance, what is built) stays strictly
per-query inside the engine, so outcomes do not depend on how arrivals
were grouped into blocks.

Evaluated blocks are dropped as soon as their last query is consumed, so
a scheduler that has drained an epoch holds no numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.execution import ExecutionCostModel
from repro.costmodel.vectorized import BatchPlanEstimates, evaluate_plan_table
from repro.errors import PlanningError
from repro.planner.enumerator import PlanEnumerator
from repro.planner.plan_table import PlanTable, PlanTableCache
from repro.workload.query import Query

#: Upper bound on queries evaluated in one vectorized pass when no
#: settlement period splits the workload (bounds peak array memory).
DEFAULT_MAX_BATCH_SIZE = 4096


@dataclass
class BatchPricingContext:
    """Mutable per-query pricing state of the planner.

    Built by the engine's pricing pass and handed to the
    remote-adjustment hook (the partitioned engine rewrites rows whose new
    structures are remotely advertised) before skyline selection and
    materialisation. All per-row lists are indexed by plan-table row;
    per-structure lists by the table's unique-structure slot.
    """

    __slots__ = (
        "table", "estimates", "column", "times", "execution_dollars",
        "charges", "cached_flags", "maintenance", "amortized", "prices",
        "existing", "remote_surcharges",
    )

    table: PlanTable
    estimates: BatchPlanEstimates
    column: int
    times: List[float]
    execution_dollars: List[float]
    charges: List[float]
    cached_flags: List[bool]
    maintenance: List[float]
    amortized: List[float]
    prices: List[float]
    existing: List[bool]
    # Per unique-structure slot: (dollars, seconds, shipped_bytes) for
    # structures served from a remote partition, else None. None as a whole
    # means no remote adjustment applies.
    remote_surcharges: Optional[List[Optional[Tuple[float, float, float]]]]


class _TemplateBlock:
    """One template's evaluated batch within the current epoch."""

    __slots__ = ("table", "estimates")

    def __init__(self, table: PlanTable, estimates: BatchPlanEstimates) -> None:
        self.table = table
        self.estimates = estimates


class BatchScheduler:
    """Groups primed arrivals into epochs and evaluates them lazily."""

    def __init__(self, enumerator: PlanEnumerator,
                 execution_model: ExecutionCostModel,
                 tables: Optional[PlanTableCache] = None,
                 max_batch_size: int = DEFAULT_MAX_BATCH_SIZE) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self._enumerator = enumerator
        self._execution = execution_model
        self._tables = tables if tables is not None else PlanTableCache()
        self._max_batch = max_batch_size
        # Unevaluated epochs by sequence number; evaluating one drops it.
        self._epochs: Dict[int, List[Query]] = {}
        self._next_epoch = 0
        self._epoch_of: Dict[int, int] = {}
        self._window_end = -1
        self._blocks: Dict[str, _TemplateBlock] = {}
        self._columns: Dict[int, Tuple[str, int]] = {}
        self._remaining = 0
        # Observability sink (duck-typed TraceRecorder); None = disabled.
        self._trace = None

    def attach_trace(self, recorder) -> None:
        """Attach a read-only trace recorder (batch-window events)."""
        self._trace = recorder

    @property
    def tables(self) -> PlanTableCache:
        """The plan-table cache (shared across primes and epochs)."""
        return self._tables

    @property
    def pending_queries(self) -> int:
        """Primed queries not yet handed out."""
        return len(self._epoch_of)

    def prime(self, queries: Sequence[Query],
              settlement_period_s: Optional[float] = None) -> None:
        """Register upcoming arrivals, replacing any previous priming.

        Args:
            queries: the arrivals, in arrival order.
            settlement_period_s: when set, epoch boundaries follow the
                simulation's settlement grid (arrivals between consecutive
                settlement events form one epoch); otherwise the workload
                is chunked by :data:`DEFAULT_MAX_BATCH_SIZE` alone.
        """
        self.clear()
        ordered = list(queries)
        if not (ordered and settlement_period_s):
            self.extend(ordered)
            return
        start_s = ordered[0].arrival_time
        epoch: List[Query] = []
        last_slot: Optional[int] = None
        for query in ordered:
            slot = int((query.arrival_time - start_s) // settlement_period_s)
            if slot != last_slot and epoch:
                self.extend(epoch)
                epoch = []
            last_slot = slot
            epoch.append(query)
        self.extend(epoch)

    def extend(self, queries: Sequence[Query]) -> None:
        """Queue more upcoming arrivals behind the ones already primed.

        Append-only: unconsumed primed queries and evaluated windows stay
        as they are, and the new arrivals form epochs of their own (split
        at :data:`DEFAULT_MAX_BATCH_SIZE`). A streamed run calls this with
        each slice of its lookahead window, so consecutive slices are
        scored together in one vectorized window when the first of them
        arrives.
        """
        ordered = list(queries)
        for offset in range(0, len(ordered), self._max_batch):
            index = self._next_epoch
            self._next_epoch += 1
            epoch = ordered[offset:offset + self._max_batch]
            self._epochs[index] = epoch
            for query in epoch:
                self._epoch_of[query.query_id] = index

    def view_for(self, query: Query
                 ) -> Tuple[PlanTable, BatchPlanEstimates, int]:
        """The evaluated view of ``query``: its table, estimates and column.

        Each primed query is handed its column of the primed window once.
        Asking again, or asking for a query that was never primed,
        evaluates it on its own as a one-query block without touching the
        primed window; the estimates are the same either way.

        Raises:
            PlanningError: if the query's template name is cached with a
                different shape (predicate count or fact table).
        """
        epoch = self._epoch_of.pop(query.query_id, None)
        if epoch is None:
            return self._evaluate_single(query)
        if epoch > self._window_end:
            self._evaluate_window(epoch)
        entry = self._columns.pop(query.query_id, None)
        if entry is None:
            # Primed, but its window was dropped already (a duplicate id,
            # or an arrival after a later epoch was evaluated).
            return self._evaluate_single(query)
        template_name, column = entry
        block = self._blocks[template_name]
        self._remaining -= 1
        if self._remaining <= 0:
            # Window drained: release the arrays eagerly.
            self._blocks = {}
            self._columns = {}
        return block.table, block.estimates, column

    def clear(self) -> None:
        """Drop all primed queries and evaluated blocks."""
        self._epochs = {}
        self._next_epoch = 0
        self._epoch_of = {}
        self._window_end = -1
        self._blocks = {}
        self._columns = {}
        self._remaining = 0

    # -- internals -------------------------------------------------------------

    def _evaluate_single(self, query: Query
                         ) -> Tuple[PlanTable, BatchPlanEstimates, int]:
        """Score one query as its own block (nothing is retained)."""
        table = self._tables.table_for(query, self._enumerator,
                                       self._execution)
        _check_shape(table, query)
        return table, evaluate_plan_table(table, [query], self._execution), 0

    def _evaluate_window(self, start: int) -> None:
        # Execution estimates depend on the query instance and the
        # immutable cost model alone — never on settlement state — so one
        # vectorized pass may span as many consecutive epochs as fit in
        # the memory bound. Epochs stay the grouping unit; only the
        # evaluation is amortized across them.
        queries: List[Query] = []
        index = start
        while index in self._epochs:
            epoch_queries = self._epochs[index]
            if queries and len(queries) + len(epoch_queries) > self._max_batch:
                break
            queries.extend(self._epochs.pop(index))
            self._window_end = index
            index += 1
        groups: Dict[str, List[Query]] = {}
        for query in queries:
            groups.setdefault(query.template_name, []).append(query)
        blocks: Dict[str, _TemplateBlock] = {}
        columns: Dict[int, Tuple[str, int]] = {}
        for template_name, group in groups.items():
            table = self._tables.table_for(
                group[0], self._enumerator, self._execution
            )
            for query in group:
                _check_shape(table, query)
            estimates = evaluate_plan_table(table, group, self._execution)
            blocks[template_name] = _TemplateBlock(table, estimates)
            for column, query in enumerate(group):
                columns[query.query_id] = (template_name, column)
        self._blocks = blocks
        self._columns = columns
        self._remaining = len(columns)
        if self._trace is not None and queries:
            self._trace.event(
                "batch_window",
                time_s=queries[0].arrival_time,
                size=len(queries),
                templates=len(blocks),
                epochs=self._window_end - start + 1,
            )


def _check_shape(table: PlanTable, query: Query) -> None:
    """Reject a query whose template name is cached with another shape.

    Plan tables (like the enumerator's column and index memos) are keyed
    by template name alone, so a name reused for a different predicate
    count or fact table would be scored against the wrong plan set.
    """
    if (len(query.predicates) != table.predicate_count
            or query.table_name != table.table_name):
        raise PlanningError(
            f"query {query.query_id} reuses template name "
            f"{query.template_name!r} with a different shape "
            f"({query.table_name}, {len(query.predicates)} predicates; "
            f"the cached plan table has {table.table_name}, "
            f"{table.predicate_count})"
        )
