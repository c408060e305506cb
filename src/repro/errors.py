"""Exception hierarchy for the cloud-cache economy reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class PricingError(ConfigurationError):
    """A resource price is unknown or invalid (for example, negative)."""


class SchemaError(ReproError):
    """A table, column, or index referenced in a query does not exist."""


class UnknownTableError(SchemaError):
    """A query or structure references a table not present in the catalog."""

    def __init__(self, table_name: str) -> None:
        super().__init__(f"unknown table: {table_name!r}")
        self.table_name = table_name


class UnknownColumnError(SchemaError):
    """A query or structure references a column not present in the catalog."""

    def __init__(self, table_name: str, column_name: str) -> None:
        super().__init__(f"unknown column: {table_name!r}.{column_name!r}")
        self.table_name = table_name
        self.column_name = column_name


class WorkloadError(ReproError):
    """The workload specification or generated workload is invalid."""


class BudgetFunctionError(ReproError):
    """A user budget function violates its contract (e.g. not descending)."""


class PlanningError(ReproError):
    """Plan enumeration failed or produced no feasible plan."""


class CacheError(ReproError):
    """The cache manager was asked to perform an impossible operation."""


class InsufficientSpaceError(CacheError):
    """A structure cannot be admitted because space cannot be reclaimed."""


class EconomyError(ReproError):
    """The economy engine reached an inconsistent state."""


class InsufficientCreditError(EconomyError):
    """An investment was attempted that exceeds the cloud's credit."""


class SimulationError(ReproError):
    """The event-driven simulator reached an inconsistent state."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class PartitioningError(ReproError):
    """A stable-hash partitioning primitive was misused.

    Raised by :mod:`repro.partitioning`, the stable-hash helper behind
    structure partitioning (:mod:`repro.distcache`), which wraps it in
    its own error type at its public boundary.
    """


class DistCacheError(ReproError):
    """A partitioned-cache run was mis-configured or violated an invariant.

    Raised for configuration mistakes (partition counts < 1, partitioned
    mode requested for a scheme with no economy) and — more seriously —
    when an audit detects a broken invariant: a structure admitted by a
    partition that does not own its key, a directory entry without a live
    owner, or a sub-account whose ledger no longer folds to its credit.
    """
