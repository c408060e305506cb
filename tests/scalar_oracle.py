"""The scalar planning pipeline, kept as a test oracle for the engine.

The engine plans every query through vectorized per-template plan tables
(:meth:`repro.economy.engine.EconomyEngine._plan`). This module is the
reference it is checked against, one plan at a time: price every
enumerated plan with :meth:`~repro.economy.pricing.PlanPricer.price_plans`,
re-price plans with directory knowledge on a partitioned engine, keep the
time/cost skyline with :func:`~repro.planner.skyline.skyline_filter`,
guarantee an executable plan, and quote the user's budget against the
back-end (or cheapest existing) plan. Build costs are asked of the cost
model directly, never memoized. The engine's floats must equal the
oracle's exactly.

Use :class:`ScalarOracleEngine` where a test builds engines itself, and
:func:`oracle_planning` to plan every engine of a whole-cell run (plain
or partitioned) through the oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List, Set, Tuple
from unittest import mock

from repro.distcache.engine import PartitionedEconomyEngine
from repro.economy.budget import BudgetFunction
from repro.economy.engine import EconomyEngine
from repro.economy.pricing import PricedPlan
from repro.errors import PlanningError
from repro.planner.plan import PlanKind
from repro.planner.skyline import skyline_filter
from repro.structures.base import CacheStructure
from repro.workload.query import Query


def scalar_plan(engine: EconomyEngine, query: Query,
                now: float) -> Tuple[List[PricedPlan], BudgetFunction]:
    """The skyline and budget of ``query``, planned one plan at a time."""
    priced = price_plans(engine, query, now)
    skyline = skyline_filter(
        priced,
        time_of=lambda plan: plan.response_time_s,
        cost_of=lambda plan: plan.price,
    )
    skyline = _ensure_existing_plan(priced, skyline)
    return skyline, _budget_for(engine, query, priced)


def unmemoized_build_cost(engine: EconomyEngine, structure: CacheStructure,
                          available_columns: Set[str]) -> float:
    """The cost model's build cost, asked afresh on every call."""
    return engine._structure_costs.build_cost(
        structure, cached_columns=available_columns
    )


class ScalarOracleEngine(EconomyEngine):
    """An :class:`EconomyEngine` that plans through the scalar oracle."""

    _plan = scalar_plan
    _memoized_build_cost = unmemoized_build_cost


@contextmanager
def oracle_planning() -> Iterator[List[int]]:
    """Plan every engine, base or partitioned, through the oracle.

    The patch is class-level, so it reaches engines that a runner builds
    internally; runs must stay in-process (one worker) for it to apply.
    Yields the ids of the queries planned, so a test can check the oracle
    really ran.
    """
    calls: List[int] = []

    def counted(engine, query, now):
        calls.append(query.query_id)
        return scalar_plan(engine, query, now)

    with mock.patch.object(EconomyEngine, "_plan", counted), \
            mock.patch.object(EconomyEngine, "_memoized_build_cost",
                              unmemoized_build_cost):
        yield calls


# -- the pipeline's steps ---------------------------------------------------


def price_plans(engine: EconomyEngine, query: Query,
                now: float) -> List[PricedPlan]:
    """Every enumerated plan of ``query``, priced one by one."""
    plans = engine._enumerator.enumerate(query)
    if not plans:
        raise PlanningError(f"no plans enumerated for query {query.query_id}")
    priced = engine._pricer.price_plans(plans, engine.cache, now)
    if (isinstance(engine, PartitionedEconomyEngine)
            and len(engine.partitioned_cache.directory) > 0):
        priced = [_apply_remote(engine, plan) for plan in priced]
    return priced


def _apply_remote(engine: PartitionedEconomyEngine,
                  priced: PricedPlan) -> PricedPlan:
    """Re-price one plan with directory knowledge.

    Structures the pricer classified as *new* (absent locally) but which
    the directory advertises on another partition become remote accesses:
    no build, no from-scratch amortisation — instead the surcharge is
    folded into the plan's execution estimate.
    """
    cache = engine.partitioned_cache
    remote_entries = []
    local_new = []
    for structure in priced.new_structures:
        entry = cache.remote_entry(structure.key)
        if entry is None:
            local_new.append(structure)
        else:
            remote_entries.append((structure, entry))
    if not remote_entries:
        return priced

    dollars = seconds = shipped = 0.0
    for _, entry in remote_entries:
        access_dollars, access_seconds, access_bytes = \
            engine.remote_model.surcharge(entry.size_bytes)
        dollars += access_dollars
        seconds += access_seconds
        shipped += access_bytes
    execution = priced.plan.execution
    execution = replace(
        execution,
        network_bytes=execution.network_bytes + shipped,
        network_dollars=execution.network_dollars + dollars,
        response_time_s=execution.response_time_s + seconds,
    )
    plan = replace(priced.plan, execution=execution)
    remote_keys = {structure.key for structure, _ in remote_entries}
    amortized_by_structure = {
        key: charge
        for key, charge in priced.amortized_by_structure.items()
        if key not in remote_keys
    }
    return PricedPlan(
        plan=plan,
        execution_dollars=plan.execution_dollars,
        amortized_dollars=sum(amortized_by_structure.values()),
        maintenance_dollars=priced.maintenance_dollars,
        new_structures=tuple(local_new),
        amortized_by_structure=amortized_by_structure,
    )


def _ensure_existing_plan(priced: List[PricedPlan],
                          skyline: List[PricedPlan]) -> List[PricedPlan]:
    """Re-add the cheapest existing plan if the skyline dominated them all."""
    if any(plan.is_existing for plan in skyline):
        return skyline
    existing = [plan for plan in priced if plan.is_existing]
    if not existing:
        return skyline
    cheapest = min(existing, key=lambda plan: plan.price)
    return skyline + [cheapest]


def _budget_for(engine: EconomyEngine, query: Query,
                priced: List[PricedPlan]) -> BudgetFunction:
    backend = [plan for plan in priced
               if plan.plan.kind is PlanKind.BACKEND]
    if backend:
        reference = backend[0]
    else:
        reference = min(
            (plan for plan in priced if plan.is_existing),
            key=lambda plan: plan.price,
            default=priced[0],
        )
    config = engine.config
    if engine.tenants is not None:
        budget = engine.tenants.budget_for(
            query, reference.price, reference.response_time_s,
            default_model=config.user_model,
        )
    else:
        budget = config.user_model.budget_for(
            query, reference.price, reference.response_time_s
        )
    return engine._squeeze(budget)
