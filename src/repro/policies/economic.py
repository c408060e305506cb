"""The three variants of the economic model evaluated in Section VII.

All three share the :class:`~repro.economy.engine.EconomyEngine`; they differ
only in which plans the enumerator may consider and how the chosen plan is
picked among the affordable ones:

* **econ-col** — plans may use only cached columns (no indexes, no extra
  CPU nodes); the chosen plan is the cheapest affordable one.
* **econ-cheap** — indexes and extra CPU nodes are allowed; the plan with
  the least cost is chosen.
* **econ-fast** — like econ-cheap, but the plan with the fastest response
  time is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.cache.manager import CacheConfig, CacheManager
from repro.costmodel.build import StructureCostModel
from repro.costmodel.execution import ExecutionCostModel
from repro.economy.engine import EconomyConfig, EconomyEngine, QueryOutcome
from repro.economy.negotiation import PlanSelection
from repro.economy.tenancy import TenantRegistry
from repro.errors import ConfigurationError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.policies.base import CachingScheme, SchemeStep
from repro.structures.cached_index import CachedIndex
from repro.workload.query import Query


@dataclass(frozen=True)
class EconomicSchemeConfig:
    """Configuration shared by the econ-* schemes.

    Attributes:
        economy: the economy-engine tunables (regret fraction, amortisation
            horizon, seed credit, plan-selection criterion, user model).
        enumerator: which plans may be considered.
        cache: cache capacity and failure-eviction settings.
        candidate_indexes: the advisor's index pool (ignored when the
            enumerator disallows index plans).
        tenants: optional multi-tenant registry; when set, pricing and
            negotiation become tenant-aware (per-tenant budgets, wallets,
            and regret) while ``None`` keeps the single-tenant path.
        engine_factory: optional hook replacing the engine construction.
            Called as ``factory(enumerator, structure_costs, cache_config,
            economy_config, tenants)`` and must return an
            :class:`~repro.economy.engine.EconomyEngine` (or subclass).
            :mod:`repro.distcache` uses this to install a partitioned
            engine over a partition-scoped cache without forking the
            scheme assembly.
    """

    economy: EconomyConfig = field(default_factory=EconomyConfig)
    enumerator: EnumeratorConfig = field(default_factory=EnumeratorConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    candidate_indexes: Sequence[CachedIndex] = ()
    tenants: Optional[TenantRegistry] = None
    engine_factory: Optional[Callable[..., EconomyEngine]] = None


class EconomicScheme(CachingScheme):
    """A caching scheme driven by the self-tuned economy."""

    def __init__(self, name: str, execution_model: ExecutionCostModel,
                 structure_costs: StructureCostModel,
                 config: EconomicSchemeConfig) -> None:
        if not name:
            raise ConfigurationError("scheme name must not be empty")
        self._name = name
        candidate_indexes = (
            tuple(config.candidate_indexes)
            if config.enumerator.allow_index_plans else ()
        )
        enumerator = PlanEnumerator(
            execution_model,
            candidate_indexes=candidate_indexes,
            config=config.enumerator,
        )
        if config.engine_factory is not None:
            self._engine = config.engine_factory(
                enumerator, structure_costs, config.cache,
                config.economy, config.tenants,
            )
        else:
            self._engine = EconomyEngine(
                enumerator=enumerator,
                structure_costs=structure_costs,
                cache=CacheManager(config.cache),
                config=config.economy,
                tenants=config.tenants,
            )

    @property
    def name(self) -> str:
        return self._name

    @property
    def cache(self) -> CacheManager:
        return self._engine.cache

    @property
    def engine(self) -> EconomyEngine:
        """The underlying economy engine (exposed for inspection and tests)."""
        return self._engine

    @property
    def tenant_registry(self) -> Optional[TenantRegistry]:
        """The engine's tenant registry (``None`` when single-tenant)."""
        return self._engine.tenants

    def process(self, query: Query) -> SchemeStep:
        outcome = self._engine.process_query(query)
        return _step_from_outcome(outcome)

    def prime_workload(self, queries: Sequence[Query],
                       settlement_period_s: Optional[float] = None) -> None:
        self._engine.prime_queries(queries, settlement_period_s)

    def extend_workload(self, queries: Sequence[Query]) -> None:
        self._engine.extend_queries(queries)

    # -- market shocks ---------------------------------------------------------

    def apply_invalidation(self, predicate: str, now: float):
        # The engine also invalidates the plan enumerator's generation so
        # plan tables rebuild, and clears its pricing memos.
        return self._engine.invalidate_structures(predicate, now)

    def apply_price_shock(self, factor: float, now: float) -> None:
        super().apply_price_shock(factor, now)
        self._engine.apply_price_shock(factor)

    def apply_budget_squeeze(self, factor: float, now: float) -> None:
        self._engine.apply_budget_squeeze(factor)

    def enforce_maintenance(self, now: float):
        return self._engine.enforce_maintenance(now)


def _step_from_outcome(outcome: QueryOutcome) -> SchemeStep:
    """Translate an economy outcome into the scheme-level step record."""
    return SchemeStep(
        query_id=outcome.query.query_id,
        template_name=outcome.query.template_name,
        arrival_time_s=outcome.query.arrival_time,
        response_time_s=outcome.response_time_s,
        served_in_cache=outcome.served_in_cache,
        plan_label=outcome.plan_label,
        execution_cpu_dollars=outcome.execution_cpu_dollars,
        execution_io_dollars=outcome.execution_io_dollars,
        execution_network_dollars=outcome.execution_network_dollars,
        build_dollars=outcome.build_spend,
        network_bytes=outcome.network_bytes,
        charge=outcome.charge,
        profit=outcome.profit,
        builds=len(outcome.builds),
        evictions=len(outcome.evictions),
        eviction_losses=outcome.eviction_losses,
        tenant_id=outcome.tenant_id,
    )


# -- factory helpers ---------------------------------------------------------------


def build_econ_col(execution_model: ExecutionCostModel,
                   structure_costs: StructureCostModel,
                   config: Optional[EconomicSchemeConfig] = None) -> EconomicScheme:
    """econ-col: the economy restricted to cached columns."""
    base = config or EconomicSchemeConfig()
    adjusted = replace(
        base,
        economy=replace(base.economy, plan_selection=PlanSelection.CHEAPEST),
        enumerator=replace(base.enumerator, allow_index_plans=False,
                           max_extra_nodes=0),
        candidate_indexes=(),
    )
    return EconomicScheme("econ-col", execution_model, structure_costs, adjusted)


def build_econ_cheap(execution_model: ExecutionCostModel,
                     structure_costs: StructureCostModel,
                     config: Optional[EconomicSchemeConfig] = None) -> EconomicScheme:
    """econ-cheap: full economy, cheapest affordable plan."""
    base = config or EconomicSchemeConfig()
    adjusted = replace(
        base,
        economy=replace(base.economy, plan_selection=PlanSelection.CHEAPEST),
        enumerator=replace(base.enumerator, allow_index_plans=True),
    )
    return EconomicScheme("econ-cheap", execution_model, structure_costs, adjusted)


def build_econ_fast(execution_model: ExecutionCostModel,
                    structure_costs: StructureCostModel,
                    config: Optional[EconomicSchemeConfig] = None) -> EconomicScheme:
    """econ-fast: full economy, fastest affordable plan."""
    base = config or EconomicSchemeConfig()
    adjusted = replace(
        base,
        economy=replace(base.economy, plan_selection=PlanSelection.FASTEST),
        enumerator=replace(base.enumerator, allow_index_plans=True),
    )
    return EconomicScheme("econ-fast", execution_model, structure_costs, adjusted)
