"""Exact merge and audit of per-partition results.

Partitioned mode changes the simulation's semantics (see
``docs/distcache.md``), so there is no byte-identity barrier against the
global-cache run. What *is* pinned exactly — bitwise, no tolerances — is
the money:

* **Ledger integrity.** Every provider sub-account's credit, and every
  tenant wallet's balance, equals the left fold of its own transaction
  ledger. Credits are maintained incrementally by exactly those
  additions, so replaying the ledger must reproduce the live value
  bit-for-bit; any difference means an account was mutated outside its
  ledger.
* **Payment conservation.** Per partition, the ``query_payment`` total of
  the provider sub-account equals the fold of the partition's per-query
  charges in processing order — the same floats in the same order on both
  sides, hence bitwise equality — and therefore the partition-ordered
  sums across the run conserve bitwise too: every dollar a tenant was
  charged was banked by exactly one sub-account.

The fold back into a :class:`~repro.experiments.tenants.TenantCellResult`
reuses the global-cache reporting pipeline: steps arrive in the kernel's
dispatch order, which is the arrival order ``(arrival_time_s,
query_id)`` the global run records them in, tenant breakdowns sort under
the same total order the global run uses
(:func:`~repro.experiments.tenants.sorted_breakdowns`), and with a
single partition the merge is bitwise the unpartitioned result (the
fidelity gate ``--cache-partitions 1`` relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.distcache.engine import PartitionedEconomyEngine
from repro.economy.account import ledger_fold
from repro.economy.tenancy import GenerativeTenantRegistry
from repro.errors import DistCacheError
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    sorted_breakdowns,
)
from repro.policies.base import SchemeStep
from repro.simulator.metrics import MetricsCollector


@dataclass(frozen=True)
class PartitionCheckpoint:
    """One settlement barrier's audited snapshot of the partitioned economy.

    All tuples are indexed by partition. ``query_payments`` (the provider
    side) and ``outcome_charges`` (the tenant side) are verified bitwise
    equal per partition before the checkpoint is recorded.
    ``handoffs_applied`` counts the adaptive-placement ownership handoffs
    this barrier applied (always 0 under ``--placement hash``); the
    conservation audit runs *after* them, so every checkpoint certifies
    that moving residency moved no money.
    """

    time_s: float
    epoch: int
    directory_size: int
    subaccount_credit: Tuple[float, ...]
    query_payments: Tuple[float, ...]
    outcome_charges: Tuple[float, ...]
    handoffs_applied: int = 0

    @property
    def conserved_total(self) -> float:
        """The conserved cross-partition total: what tenants paid, summed
        in partition order (bitwise equal to the provider-side sum)."""
        total = 0.0
        for charge in self.outcome_charges:
            total += charge
        return total


def verify_subaccount_integrity(
        engines: Sequence[PartitionedEconomyEngine]) -> None:
    """Every sub-account's credit must fold bitwise from its own ledger."""
    for engine in engines:
        folded = ledger_fold(engine.account)
        if folded != engine.account.credit:
            raise DistCacheError(
                f"sub-account integrity violated on partition "
                f"{engine.partition_index}: ledger folds to {folded!r} but "
                f"credit is {engine.account.credit!r}"
            )


def verify_payment_conservation(
        engines: Sequence[PartitionedEconomyEngine]
        ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Provider deposits must equal tenant charges, bitwise, per partition.

    Returns:
        ``(payments, charges)`` — the provider-side and tenant-side folds
        per partition, computed independently by
        :meth:`~repro.economy.engine.EconomyEngine.payment_folds`
        (checkpoints record both,
        so a post-hoc audit can re-compare them rather than trusting this
        function ran).

    Raises:
        DistCacheError: on the first partition whose sub-account banked a
            different total than its queries charged.
    """
    payments: List[float] = []
    charges: List[float] = []
    for engine in engines:
        banked, charged = engine.payment_folds()
        if banked != charged:
            raise DistCacheError(
                f"payment conservation violated on partition "
                f"{engine.partition_index}: sub-account banked {banked!r} "
                f"but queries charged {charged!r}"
            )
        payments.append(banked)
        charges.append(charged)
    return tuple(payments), tuple(charges)


def verify_wallet_integrity(
        registries: Sequence[GenerativeTenantRegistry]) -> None:
    """Every tenant wallet's balance must fold bitwise from its ledger.

    A churned wallet's ledger is folded when its state is dropped, so
    churned wallets count too
    (:meth:`~repro.economy.tenancy.GenerativeTenantRegistry.wallet_ledger_mismatches`).
    """
    for partition, registry in enumerate(registries):
        mismatches = registry.wallet_ledger_mismatches()
        if mismatches:
            raise DistCacheError(
                f"wallet integrity violated on partition {partition}: "
                f"{mismatches} wallets do not fold from their ledgers"
            )


def merged_wallets(registries: Sequence[GenerativeTenantRegistry],
                   steps: Sequence[SchemeStep]
                   ) -> Tuple[Tuple[str, float], ...]:
    """Merge per-partition wallet views into one balance per tenant.

    Every partition seeds every wallet with the tenant's full credit and
    withdraws only the charges of the queries it served, so the merged
    balance is ``seed - sum of withdrawals across partitions`` (summed in
    partition order; a partition that never charged the tenant adds an
    exact 0.0, so only charging partitions are summed). A tenant no
    partition charged keeps its seed, which is its balance on the first
    partition. Ordering follows the unpartitioned registry: population
    mint order first, then ad-hoc ids by first appearance in the merged
    query stream.
    """
    if not registries:
        return ()
    if len(registries) == 1:
        return tuple(registries[0].credit_by_tenant().items())
    balances = registries[0].credit_by_tenant()
    ordered: List[str] = list(balances)
    extra = {tid for registry in registries[1:]
             for tid in registry.tenant_ids() if tid not in balances}
    for step in steps:
        if step.tenant_id in extra:
            ordered.append(step.tenant_id)
            extra.discard(step.tenant_id)
    ordered.extend(sorted(extra))

    withdrawn: Dict[str, float] = {}
    for registry in registries:
        for tenant_id, charged in registry.withdrawn_by_tenant().items():
            withdrawn[tenant_id] = withdrawn.get(tenant_id, 0.0) + charged

    merged: List[Tuple[str, float]] = []
    for tenant_id in ordered:
        charged = withdrawn.get(tenant_id)
        if charged is None and tenant_id in balances:
            merged.append((tenant_id, balances[tenant_id]))
            continue
        seed = next(registry.initial_credit_of(tenant_id)
                    for registry in registries if tenant_id in registry)
        merged.append((tenant_id, seed - (charged or 0.0)))
    return tuple(merged)


def merge_partition_results(
        config: TenantExperimentConfig,
        steps: Sequence[SchemeStep],
        maintenance_by_partition: Sequence[Sequence[Tuple[float, float]]],
        registries: Sequence[GenerativeTenantRegistry],
        duration_s: float,
        population_size: int,
        churn_waves: int,
        kernel_losses_by_partition: Sequence[Sequence[float]] = (),
        ) -> TenantCellResult:
    """Fold per-partition outputs into one cell result.

    ``steps`` are every partition's steps in dispatch order, the order
    the unpartitioned simulation records them in. With one partition the
    maintenance records replay into the collector one by one, making the
    result bitwise identical to
    :func:`repro.experiments.tenants.run_tenant_cell`. With several,
    maintenance totals add record by record in partition order and
    ``duration_s`` is the global run span.
    ``kernel_losses_by_partition`` carries kernel-driven eviction losses
    (invalidation shocks, strict-maintenance shutdowns) per partition in
    event order; they book exactly like
    :meth:`~repro.simulator.metrics.MetricsCollector.record_kernel_evictions`
    in the unpartitioned run, after the steps.
    """
    collector = MetricsCollector(config.scheme)
    for step in steps:
        collector.record_step(step)
    if len(maintenance_by_partition) == 1:
        for dollars, elapsed in maintenance_by_partition[0]:
            collector.record_maintenance(dollars, elapsed)
    else:
        total_maintenance = 0.0
        for records in maintenance_by_partition:
            for dollars, _ in records:
                total_maintenance += dollars
        collector.record_maintenance(total_maintenance, duration_s)

    for losses in kernel_losses_by_partition:
        # The losses are already dollars: book them through the same
        # accumulator the event loop uses, with an identity loss function.
        collector.record_kernel_evictions(losses, loss_of=lambda loss: loss)

    result_steps = collector.steps
    return TenantCellResult(
        config=config,
        summary=collector.summary(),
        tenants=sorted_breakdowns(result_steps),
        wallet_credit=merged_wallets(registries, result_steps),
        population_size=population_size,
        churn_waves=churn_waves,
    )
