"""Per-template plan tables: the structural half of query planning.

The plan set the enumerator produces for a query — plan kind x node count x
relevant index — is a function of the *template* alone: instances of one
template differ only in their predicate selectivities. A :class:`PlanTable`
materialises that structural set once per template, in the exact order
:meth:`~repro.planner.enumerator.PlanEnumerator.enumerate` emits plans,
together with everything the vectorized evaluator
(:mod:`repro.costmodel.vectorized`) needs to score a whole batch of
instances against it:

* a **proto plan** per row (the :class:`~repro.planner.plan.QueryPlan`
  built for the representative instance; per-instance plans are
  ``dataclasses.replace`` copies of it),
* the row's structures as indices into a deduplicated structure list, so
  per-query pricing touches each distinct structure once instead of once
  per plan,
* which rows are **constant** (their execution estimate is identical for
  every instance: column scans always, index rows whose index serves no
  predicate, never the back-end row) and, for instance-dependent index
  rows, which predicate *positions* the index prefix serves,
* the scalar cost-model coefficients of each row (probe bytes, multi-node
  overhead and speed-up factors) so the batched pass reproduces the scalar
  arithmetic expression for expression.

Tables are cached per template name by :class:`PlanTableCache` and stamped
with the enumerator's :attr:`~repro.planner.enumerator.PlanEnumerator.generation`;
bumping the generation (``enumerator.invalidate()``) after a catalog or
candidate-pool swap invalidates every cached table at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.costmodel.execution import ExecutionCostModel, ExecutionEstimate
from repro.costmodel.scaling import cpu_overhead_factor, speedup_factor
from repro.errors import PlanningError
from repro.planner.enumerator import PlanEnumerator
from repro.planner.plan import PlanKind, QueryPlan
from repro.structures.base import CacheStructure
from repro.workload.query import PredicateKind, Query


@dataclass(frozen=True)
class PlanRow:
    """One structural plan shape of a template.

    Attributes:
        plan: the proto :class:`QueryPlan`, built for the representative
            instance; batched execution replaces its ``query`` (and, for
            non-constant rows, its ``execution``) per instance.
        structure_indices: positions of the row's structures inside
            :attr:`PlanTable.unique_structures`, in plan-structure order.
        constant: whether the row's execution estimate is the same for
            every instance of the template.
        served_positions: for instance-dependent index rows, the predicate
            positions (into ``query.predicates``) the index prefix serves,
            in index-key order; empty otherwise.
        probe_bytes: bytes read probing the row's index (index rows only).
        cpu_overhead: multi-node coordination factor of the row's node count.
        speedup: multi-node speed-up factor at the template's parallel
            fraction.
    """

    plan: QueryPlan
    structure_indices: Tuple[int, ...]
    constant: bool
    served_positions: Tuple[int, ...] = ()
    probe_bytes: Optional[float] = None
    cpu_overhead: float = 1.0
    speedup: float = 1.0


@dataclass(frozen=True)
class PlanTable:
    """The materialised plan set of one template.

    Row order is exactly the enumerator's emission order, which downstream
    consumers (skyline, budget reference, negotiation) rely on for
    bit-for-bit parity with the scalar path.
    """

    template_name: str
    table_name: str
    generation: int
    rows: Tuple[PlanRow, ...]
    unique_structures: Tuple[CacheStructure, ...]
    backend_row: Optional[int]
    backend_base: Optional[ExecutionEstimate]
    predicate_count: int
    full_scan_bytes: float
    fact_row_count: int
    projection_width_bytes: int
    aggregation_factor: float
    base_cost_factor: float

    @property
    def row_count(self) -> int:
        """Number of plan rows in the table."""
        return len(self.rows)


def _served_positions(query: Query, index) -> Tuple[int, ...]:
    """Predicate positions the index prefix serves, template-level.

    Mirrors :meth:`ExecutionCostModel._index_served_selectivity` exactly,
    including its dict semantics (a later predicate on the same column
    shadows an earlier one) — but returns *positions*, which are fixed for
    the template, instead of resolved selectivities, which are not.
    """
    if index.table_name != query.table_name:
        return ()
    position_by_column: Dict[str, int] = {}
    for position, predicate in enumerate(query.predicates):
        if predicate.table_name == query.table_name:
            position_by_column[predicate.column_name] = position
    served: List[int] = []
    for column_name in index.column_names:
        position = position_by_column.get(column_name)
        if position is None:
            break
        served.append(position)
        if query.predicates[position].kind is PredicateKind.RANGE:
            break
    return tuple(served)


def build_plan_table(query: Query, enumerator: PlanEnumerator,
                     execution_model: ExecutionCostModel) -> PlanTable:
    """Materialise the plan table of ``query``'s template.

    ``query`` acts as the representative instance: structural facts (plan
    set, structures, served prefixes) are template properties, and the
    constant rows' execution estimates are taken verbatim from the scalar
    cost model's run over this instance.
    """
    plans = enumerator.enumerate(query)
    if not plans:
        raise PlanningError(
            f"no plans enumerated for template {query.template_name!r}"
        )
    estimator = execution_model.estimator
    config = execution_model.config
    schema = estimator.schema

    index_by_key: Dict[str, int] = {}
    unique_structures: List[CacheStructure] = []
    rows: List[PlanRow] = []
    backend_row: Optional[int] = None
    backend_base: Optional[ExecutionEstimate] = None

    for position, plan in enumerate(plans):
        indices: List[int] = []
        for structure in plan.structures:
            slot = index_by_key.get(structure.key)
            if slot is None:
                slot = len(unique_structures)
                index_by_key[structure.key] = slot
                unique_structures.append(structure)
            indices.append(slot)

        served: Tuple[int, ...] = ()
        probe_bytes: Optional[float] = None
        if plan.kind is PlanKind.BACKEND:
            backend_row = position
            # The constant cache leg of Eq. 9; the transfer leg depends on
            # the instance selectivities and is evaluated per batch.
            backend_base = execution_model.cache_execution(
                query, index=None, node_count=1
            )
            constant = False
        elif plan.kind is PlanKind.CACHE_INDEX:
            served = _served_positions(query, plan.index)
            constant = not served
            if served:
                probe_bytes = config.index_probe_fraction * plan.index.size_bytes(
                    schema
                )
        else:
            constant = True

        rows.append(PlanRow(
            plan=plan,
            structure_indices=tuple(indices),
            constant=constant,
            served_positions=served,
            probe_bytes=probe_bytes,
            cpu_overhead=cpu_overhead_factor(plan.node_count),
            speedup=speedup_factor(plan.node_count, query.parallel_fraction),
        ))

    fact_table = schema.table(query.table_name)
    projection_width = sum(
        fact_table.column(name).width_bytes for name in query.projection_columns
    )
    return PlanTable(
        template_name=query.template_name,
        table_name=query.table_name,
        generation=enumerator.generation,
        rows=tuple(rows),
        unique_structures=tuple(unique_structures),
        backend_row=backend_row,
        backend_base=backend_base,
        predicate_count=len(query.predicates),
        full_scan_bytes=float(query.scanned_bytes(estimator)),
        fact_row_count=fact_table.row_count,
        projection_width_bytes=projection_width,
        aggregation_factor=query.aggregation_factor,
        base_cost_factor=query.base_cost_factor,
    )


class PlanTableCache:
    """Per-template plan tables, invalidated by the enumerator generation.

    One cache instance can outlive many batches (and, in the partitioned
    runner, many epochs): a cached table is reused as long as the owning
    enumerator's generation has not moved, and transparently rebuilt the
    first time a template is requested after ``enumerator.invalidate()``.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, PlanTable] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def table_for(self, query: Query, enumerator: PlanEnumerator,
                  execution_model: ExecutionCostModel) -> PlanTable:
        """The (possibly cached) plan table of ``query``'s template."""
        generation = enumerator.generation
        table = self._tables.get(query.template_name)
        if table is None or table.generation != generation:
            table = build_plan_table(query, enumerator, execution_model)
            self._tables[query.template_name] = table
        return table

    def clear(self) -> None:
        """Drop every cached table."""
        self._tables.clear()
