"""Scheme resilience under market shocks: paired baseline/shocked cells.

For every scheme the runner replays the identical populated workload
twice — once clean, once with the configured shock sequence injected —
and reports how much each headline metric degraded. The shocked run is
additionally audited for **bitwise** conservation, reusing the fold
identities the distributed layers pin:

* provider side — the provider account's ``query_payment`` deposits fold
  to exactly the total the query outcomes charged (the engine deposits
  ``outcome.charge`` per query, in processing order, so the two folds
  add the same floats in the same order);
* wallet side — every tenant wallet's balance folds bitwise from its own
  ledger (no money appears or vanishes outside the recorded
  transactions).

Shocks move *state* (structures destroyed, prices scaled, budgets
squeezed), never money: a run whose audit is not exact is a bug, not a
tolerance problem.

``run_shock_resilience`` fans cells over worker processes through
:func:`repro.experiments.runner.map_cells`, the one fan-out every
experiment uses — each cell is deterministic, so the parallel tables are
byte-identical, and pooled cells' warnings are replayed in cell order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.reporting import format_table
from repro.experiments.runner import map_cells
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    run_tenant_cell,
    simulate_cell,
)


@dataclass(frozen=True)
class ConservationAudit:
    """Bitwise conservation evidence from one shocked cell.

    ``query_payments`` and ``outcome_charges`` are the provider-side and
    tenant-side folds of the same money stream, computed independently;
    ``wallet_ledger_mismatches`` counts wallets whose balance did not
    fold bitwise from their own ledger (always 0 on a passing run).
    """

    query_payments: float
    outcome_charges: float
    wallets_audited: int
    wallet_ledger_mismatches: int

    @property
    def exact(self) -> bool:
        """Whether every conservation identity held bitwise."""
        return (self.query_payments == self.outcome_charges
                and self.wallet_ledger_mismatches == 0)


@dataclass(frozen=True)
class SchemeResilience:
    """One scheme's paired clean/shocked cells plus the shocked audit."""

    baseline: TenantCellResult
    shocked: TenantCellResult
    audit: Optional[ConservationAudit]

    @property
    def scheme(self) -> str:
        """The scheme both cells ran."""
        return self.shocked.config.scheme

    @property
    def cost_ratio(self) -> float:
        """Shocked operating cost over baseline (1.0 = unaffected)."""
        base = self.baseline.summary.operating_cost
        if base == 0.0:
            return float("inf") if self.shocked.summary.operating_cost else 1.0
        return self.shocked.summary.operating_cost / base


def baseline_config(config: TenantExperimentConfig) -> TenantExperimentConfig:
    """The clean twin of a shocked cell: same population, chaos stripped.

    Shocks and the strict-maintenance shutdown policy are the fault
    knobs; everything else — tiers included, they shape the population
    itself — stays, so the pair differs only by the injected faults.
    """
    return replace(config, shocks=(), strict_maintenance=False)


def audited_shock_cell(
        config: TenantExperimentConfig,
        trace=None, metrics=None,
) -> Tuple[TenantCellResult, Optional[ConservationAudit]]:
    """Run one shocked cell and audit conservation on the live engine.

    Runs the cell exactly as :func:`repro.experiments.tenants.run_tenant_cell`
    does (the cell result is bitwise identical to it) but keeps the scheme
    in hand so the provider account, outcomes, and wallet ledgers can be
    folded before they are thrown away. The generative registry folds
    each wallet it archives at churn, so churned wallets are audited
    too. The bypass baseline has no economy, so its audit is ``None``.
    ``trace``/``metrics`` attach under the zero-perturbation contract,
    exactly as in :func:`~repro.experiments.tenants.run_tenant_cell`.
    """
    cell, scheme, registry = simulate_cell(config, trace=trace,
                                           metrics=metrics)
    if registry is None:
        return cell, None
    banked, charged = scheme.engine.payment_folds()
    audit = ConservationAudit(
        query_payments=banked,
        outcome_charges=charged,
        wallets_audited=len(registry),
        wallet_ledger_mismatches=registry.wallet_ledger_mismatches(),
    )
    return cell, audit


def _resilience_pair(config: TenantExperimentConfig,
                     trace=None, metrics=None) -> SchemeResilience:
    """Worker entry point: one scheme's clean + shocked + audit.

    The clean twin runs unobserved — the recorders describe the *faulted*
    replay, which is the one the resilience table and the conservation
    audit interrogate.
    """
    clean = run_tenant_cell(baseline_config(config))
    shocked, audit = audited_shock_cell(config, trace=trace,
                                        metrics=metrics)
    return SchemeResilience(baseline=clean, shocked=shocked, audit=audit)


def run_shock_resilience(configs: Sequence[TenantExperimentConfig],
                         jobs: Optional[int] = None,
                         trace=None,
                         metrics=None) -> List[SchemeResilience]:
    """Run paired clean/shocked cells for every config (typically one per
    scheme), optionally fanned over worker processes.

    Args:
        configs: the *shocked* cells (their ``shocks`` field is the fault
            sequence; the clean twin is derived with
            :func:`baseline_config`).
        jobs: worker processes (:func:`~repro.experiments.runner.map_cells`);
            ``None`` or 1 runs sequentially. Each pair is deterministic,
            so the parallel results are byte-identical and come back in
            ``configs`` order.
        trace: optional :class:`~repro.obs.trace.TraceRecorder` recording
            the shocked cells (the clean twins stay unobserved); observed
            runs execute sequentially so records land in one recorder —
            the results are byte-identical either way.
        metrics: optional :class:`~repro.obs.metrics.MetricsTimeseries`
            sampled at the shocked cells' settlement barriers, same
            contract.
    """
    cells = list(configs)
    for config in cells:
        if not config.shocks and not config.strict_maintenance:
            raise ExperimentError(
                f"cell for scheme {config.scheme!r} injects no faults "
                f"(no shocks, strict_maintenance off); a resilience pair "
                f"needs at least one"
            )
    observed = trace is not None or metrics is not None
    pair = functools.partial(_resilience_pair, trace=trace, metrics=metrics)
    return map_cells(pair, cells, 1 if observed else jobs)


# -- tables --------------------------------------------------------------------


def _conservation_cell(audit: Optional[ConservationAudit]) -> str:
    if audit is None:
        return "n/a"
    if audit.exact:
        return "exact"
    return f"VIOLATED ({audit.query_payments!r} != {audit.outcome_charges!r})"


def shock_resilience_table(results: Sequence[SchemeResilience]) -> str:
    """The scheme-resilience table: clean versus shocked, one row per scheme.

    The conservation column is the shocked run's bitwise audit — any
    value other than ``exact`` (or ``n/a`` for the economy-less bypass
    baseline) is a correctness failure, not noise.
    """
    headers = ["scheme", "cost", "cost+shocks", "cost x", "hit", "hit+shocks",
               "p95_s+shocks", "evictions+shocks", "conservation"]
    rows: List[List[object]] = []
    for item in results:
        base, shocked = item.baseline.summary, item.shocked.summary
        rows.append([
            item.scheme,
            base.operating_cost,
            shocked.operating_cost,
            item.cost_ratio,
            base.cache_hit_rate,
            shocked.cache_hit_rate,
            shocked.p95_response_time_s,
            shocked.evictions,
            _conservation_cell(item.audit),
        ])
    return format_table(headers, rows,
                        title="Scheme resilience under market shocks")
