"""The eager population cell, kept as a test oracle for the streamed one.

Every population cell runs on streamed arrivals over a generative tenant
registry (:func:`repro.experiments.tenants.run_tenant_cell`). This module
is the reference it is checked against: materialise the whole populated
workload with :func:`~repro.experiments.tenants.build_population`,
register every profile up front with
:meth:`~repro.economy.tenancy.TenantRegistry.register_all`, prime the
whole workload into the planner, and replay it with
:meth:`~repro.simulator.simulation.CloudSimulation.run`. The streamed
cell's tables, summary, breakdowns and wallets must equal the oracle's
exactly, and :func:`eager_audit` gives the conservation audit the eager
registry yields (every registered wallet folded from its own ledger).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.economy.account import CloudAccount, ledger_fold
from repro.economy.tenancy import TenantRegistry
from repro.experiments.shocks import ConservationAudit
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    build_population,
    cell_scheme,
    sorted_breakdowns,
)
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.workload.grammar import compile_shock_events


def eager_cell(config: TenantExperimentConfig, trace=None, metrics=None
               ) -> Tuple[TenantCellResult, object, Optional[TenantRegistry]]:
    """Run one cell eagerly; return ``(result, scheme, registry)``."""
    populated = build_population(config)
    registry: Optional[TenantRegistry] = None
    if config.scheme != "bypass":
        registry = TenantRegistry()
        registry.register_all(populated.profiles)
    scheme = cell_scheme(config, registry)
    observers = []
    if trace is not None or metrics is not None:
        from repro.obs.metrics import attach_observability

        observers = attach_observability(scheme, trace=trace,
                                         metrics=metrics)
    simulation = CloudSimulation(scheme, SimulationConfig(
        warmup_queries=config.warmup_queries,
        settlement_period_s=config.settlement_period_s,
    ))
    result = simulation.run(
        populated.queries,
        tenant_lifecycle=populated.lifecycle,
        observers=observers,
        shock_events=compile_shock_events(config.shocks, populated.queries),
    )
    wallets: Tuple[Tuple[str, float], ...] = ()
    if registry is not None:
        wallets = tuple(registry.credit_by_tenant().items())
    cell = TenantCellResult(
        config=config,
        summary=result.summary,
        tenants=sorted_breakdowns(result.steps),
        wallet_credit=wallets,
        population_size=populated.tenant_count,
        churn_waves=populated.churn_waves,
    )
    return cell, scheme, registry


def run_eager_cell(config: TenantExperimentConfig, trace=None,
                   metrics=None) -> TenantCellResult:
    """The eager twin of :func:`~repro.experiments.tenants.run_tenant_cell`."""
    return eager_cell(config, trace=trace, metrics=metrics)[0]


def eager_audit(config: TenantExperimentConfig
                ) -> Tuple[TenantCellResult, Optional[ConservationAudit]]:
    """The eager twin of :func:`~repro.experiments.shocks.audited_shock_cell`."""
    cell, scheme, registry = eager_cell(config)
    if registry is None:
        return cell, None
    engine = scheme.engine
    charged = 0.0
    for outcome in engine.outcomes:
        charged += outcome.charge
    return cell, ConservationAudit(
        query_payments=engine.account.totals_by_category().get(
            CloudAccount.CATEGORY_QUERY_PAYMENT, 0.0),
        outcome_charges=charged,
        wallets_audited=len(registry),
        wallet_ledger_mismatches=sum(
            1 for state in registry.states()
            if ledger_fold(state.account) != state.account.credit),
    )
