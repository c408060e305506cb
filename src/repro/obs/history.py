"""Bench history: append-only perf records + bench-to-bench deltas.

The report pipeline renders each ``BENCH_*.json`` in isolation, so a
silent slowdown between two releases never surfaces. This module closes
the loop:

* Every benchmark run can append one :class:`HistoryRecord` — a small,
  schema-validated extract of the bench document keyed by **git sha +
  config hash** — to an append-only per-kind JSONL store
  (``benchmarks/history/<kind>.jsonl``).
* ``repro report --baseline DIR`` loads the store, finds the **newest
  comparable** record per benchmark (same config hash, so reduced CI
  sizes never compare against the checked-in full-size numbers), and
  computes per-metric deltas with configurable warn/fail slowdown gates
  (:class:`RegressionGates`).

The config hash covers the bench document minus its *result* fields
(``runs``, measured speedups, the interpreter version, ...): two records
are comparable exactly when the benchmark was configured identically,
whatever it measured.

Example:
    >>> doc = {"benchmark": "planner", "scheme": "econ-cheap",
    ...        "query_count": 100, "seed": 0, "repetitions": 1,
    ...        "python": "3.11.0", "outcomes_identical": True,
    ...        "speedup": {"batched_warm_vs_cold": 1.1},
    ...        "runs": [{"benchmark_mode": "batched-cold",
    ...                  "queries_per_s": 1000.0}]}
    >>> record = record_from_bench(doc, git_sha="abc",
    ...                            recorded_at="2026-01-01T00:00:00Z")
    >>> record.metrics["batched_cold_queries_per_s"]
    1000.0
    >>> baseline = record_from_bench(doc, git_sha="abc",
    ...                              recorded_at="2026-01-01T00:00:00Z")
    >>> [d.status for d in compute_deltas(record.metrics, baseline)]
    ['ok']
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.manifest import config_hash, _git_sha

#: Bumped whenever the history-record shape changes incompatibly.
HISTORY_SCHEMA_VERSION = 1

#: Bench-document fields that describe *results*, not configuration.
#: Everything else participates in the comparability hash.
RESULT_FIELDS = frozenset({
    "runs", "python", "unsharded", "speedup",
    "outcomes_identical", "conservation_exact",
})

#: Regression direction per metric name. ``"higher"`` — bigger is
#: better (throughput, speedups): a drop is a regression. ``"lower"`` —
#: smaller is better (surcharge dollars, cost ratios): a rise is a
#: regression. ``None`` — informational only (counts with no better
#: direction); rendered but never gated. The enumeration is complete on
#: purpose: a metric added to :func:`history_metrics` without a
#: direction here fails loudly in :func:`compute_deltas` instead of
#: silently passing every gate.
METRIC_DIRECTIONS: Dict[str, Optional[str]] = {
    "unsharded_queries_per_s": "higher",
    "best_queries_per_s": "higher",
    "best_speedup_vs_unsharded": "higher",
    "baseline_queries_per_s": "higher",
    # Planner documents recorded while the engine still had a scalar
    # planning mode carry a "scalar" run; reports over them stay valid.
    "scalar_queries_per_s": "higher",
    "batched_cold_queries_per_s": "higher",
    "batched_warm_queries_per_s": "higher",
    "clean_queries_per_s": "higher",
    "remote_surcharge_dollars": "lower",
    "remote_hit_rate": "lower",
    "max_cost_ratio": "lower",
    "handoffs": None,
}


def bench_config_hash(document: Mapping[str, object]) -> str:
    """The comparability key of a bench document.

    A SHA-256 over the document's configuration fields only (results
    stripped, see :data:`RESULT_FIELDS`), computed with the same
    canonical-JSON hash the run manifests use.
    """
    config = {key: value for key, value in document.items()
              if key not in RESULT_FIELDS}
    return config_hash(config)


def history_metrics(document: Mapping[str, object]) -> Dict[str, float]:
    """The gateable metric extract of one bench document.

    Per kind, the handful of numbers the regression gates watch —
    throughput, speedup ratios, surcharge dollars. Every name returned
    here must appear in :data:`METRIC_DIRECTIONS`.
    """
    kind = document.get("benchmark")
    runs = [run for run in document.get("runs", ())
            if isinstance(run, Mapping)]
    metrics: Dict[str, float] = {}

    def put(name: str, value: object) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[name] = float(value)

    if kind == "sharding":
        unsharded = document.get("unsharded")
        if isinstance(unsharded, Mapping):
            put("unsharded_queries_per_s", unsharded.get("queries_per_s"))
        put("best_queries_per_s",
            max((run.get("queries_per_s", 0.0) for run in runs),
                default=None))
        put("best_speedup_vs_unsharded",
            max((run.get("speedup_vs_unsharded", 0.0) for run in runs),
                default=None))
    elif kind == "distcache":
        unsharded = document.get("unsharded")
        if isinstance(unsharded, Mapping):
            put("baseline_queries_per_s", unsharded.get("queries_per_s"))
        put("best_queries_per_s",
            max((run.get("queries_per_s", 0.0) for run in runs),
                default=None))
    elif kind == "placement":
        adaptive = [run for run in runs
                    if run.get("placement") == "adaptive"]
        if adaptive:
            put("remote_surcharge_dollars",
                sum(run.get("remote_surcharge_dollars", 0.0)
                    for run in adaptive))
            put("remote_hit_rate",
                max(run.get("remote_hit_rate", 0.0) for run in adaptive))
            put("handoffs",
                sum(run.get("handoffs", 0) for run in adaptive))
    elif kind == "planner":
        for run in runs:
            mode = run.get("benchmark_mode")
            if isinstance(mode, str):
                put(f"{mode.replace('-', '_')}_queries_per_s",
                    run.get("queries_per_s"))
    elif kind == "shocks":
        ratios = [run.get("cost_ratio") for run in runs
                  if isinstance(run.get("cost_ratio"), (int, float))]
        if ratios:
            put("max_cost_ratio", max(ratios))
        clean = [run.get("clean_queries_per_s") for run in runs
                 if isinstance(run.get("clean_queries_per_s"), (int, float))]
        if clean:
            put("clean_queries_per_s", min(clean))
    return metrics


@dataclass(frozen=True)
class HistoryRecord:
    """One appended perf observation of one benchmark kind."""

    benchmark: str
    git_sha: Optional[str]
    config_hash: str
    recorded_at: str
    version: str
    python: str
    metrics: Dict[str, float] = field(default_factory=dict)
    schema_version: int = HISTORY_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        """The record as a JSON-ready dict."""
        return {
            "schema_version": self.schema_version,
            "benchmark": self.benchmark,
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "recorded_at": self.recorded_at,
            "version": self.version,
            "python": self.python,
            "metrics": dict(self.metrics),
        }

    def to_json(self) -> str:
        """One sorted-keys JSONL line."""
        return json.dumps(self.to_dict(), sort_keys=True)


def record_from_bench(document: Mapping[str, object],
                      git_sha: Optional[str] = None,
                      recorded_at: Optional[str] = None) -> HistoryRecord:
    """Build the history record of one bench document.

    Args:
        document: the parsed BENCH_*.json.
        git_sha: commit to key the record by; resolved from the working
            tree when omitted (``None`` outside a repository — the
            record is still valid, just unattributable).
        recorded_at: ISO-8601 UTC timestamp; now when omitted.
    """
    from repro import __version__

    if recorded_at is None:
        recorded_at = datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ")
    return HistoryRecord(
        benchmark=str(document.get("benchmark", "")),
        git_sha=git_sha if git_sha is not None else _git_sha(),
        config_hash=bench_config_hash(document),
        recorded_at=recorded_at,
        version=__version__,
        python=str(document.get("python", "")),
        metrics=history_metrics(document),
    )


def append_bench_history(document: Mapping[str, object],
                         history_dir: str,
                         git_sha: Optional[str] = None,
                         recorded_at: Optional[str] = None) -> str:
    """Append one bench document's record to its per-kind history file.

    Creates ``history_dir`` (and the ``<kind>.jsonl`` file) on first
    use; existing records are never rewritten — the store is
    append-only by construction.

    Returns:
        The path appended to.
    """
    record = record_from_bench(document, git_sha=git_sha,
                               recorded_at=recorded_at)
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, f"{record.benchmark}.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record.to_json() + "\n")
    return path


def load_history(history_dir: str
                 ) -> Tuple[Dict[str, List[HistoryRecord]], List[str]]:
    """Load every per-kind history file, fail-soft.

    Returns:
        ``(records by benchmark kind, problem strings)``. Records keep
        file order (append order == chronological order); corrupt lines
        and schema mismatches become problems, never raises.
    """
    from repro.obs.schema import validate_history_record

    records: Dict[str, List[HistoryRecord]] = {}
    problems: List[str] = []
    if not os.path.isdir(history_dir):
        return records, [f"history directory {history_dir!r} does not exist"]
    for name in sorted(os.listdir(history_dir)):
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(history_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                problems.append(
                    f"{path}: line {index + 1} is not valid JSON")
                continue
            issues = validate_history_record(payload)
            if issues:
                problems.extend(
                    f"{path}: line {index + 1}: {issue}"
                    for issue in issues)
                continue
            record = HistoryRecord(
                benchmark=payload["benchmark"],
                git_sha=payload.get("git_sha"),
                config_hash=payload["config_hash"],
                recorded_at=payload["recorded_at"],
                version=payload["version"],
                python=payload["python"],
                metrics={name: float(value) for name, value
                         in payload["metrics"].items()},
                schema_version=payload["schema_version"],
            )
            records.setdefault(record.benchmark, []).append(record)
    return records, problems


def latest_comparable(records: Sequence[HistoryRecord],
                      config_hash_value: str) -> Optional[HistoryRecord]:
    """The newest record with a matching config hash, or ``None``.

    "Newest" is append order (the store is append-only), so the last
    matching line wins — no timestamp parsing, no clock-skew surprises.
    """
    for record in reversed(list(records)):
        if record.config_hash == config_hash_value:
            return record
    return None


@dataclass(frozen=True)
class RegressionGates:
    """The slowdown thresholds of the baseline comparison.

    A metric's *regression* is its relative move in the worse direction
    (see :data:`METRIC_DIRECTIONS`); at or beyond ``warn_slowdown`` the
    delta is flagged ``warn``, at or beyond ``fail_slowdown`` it is
    ``fail``. Improvements and sub-threshold noise are ``ok``.
    """

    warn_slowdown: float = 0.10
    fail_slowdown: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.warn_slowdown <= self.fail_slowdown:
            raise ValueError(
                f"gates must satisfy 0 < warn <= fail, got "
                f"warn={self.warn_slowdown} fail={self.fail_slowdown}")

    def status_of(self, regression: Optional[float]) -> str:
        """``ok``/``warn``/``fail`` for one regression fraction."""
        if regression is None:
            return "info"
        if regression >= self.fail_slowdown:
            return "fail"
        if regression >= self.warn_slowdown:
            return "warn"
        return "ok"


@dataclass(frozen=True)
class MetricDelta:
    """One metric's move against the baseline record."""

    name: str
    current: float
    baseline: float
    change: float
    regression: Optional[float]
    status: str


def compute_deltas(current: Mapping[str, float],
                   baseline: HistoryRecord,
                   gates: RegressionGates = RegressionGates()
                   ) -> List[MetricDelta]:
    """Delta every shared metric of ``current`` against ``baseline``.

    ``change`` is the signed relative move ``(current - baseline) /
    baseline``; ``regression`` folds in the metric's direction so that
    positive always means "got worse". Metrics present on only one side
    are skipped (renames degrade gracefully); a metric with no entry in
    :data:`METRIC_DIRECTIONS` raises — add the direction when adding the
    metric.
    """
    deltas: List[MetricDelta] = []
    for name in sorted(current):
        if name not in baseline.metrics:
            continue
        if name not in METRIC_DIRECTIONS:
            raise KeyError(
                f"metric {name!r} has no entry in METRIC_DIRECTIONS; "
                f"declare whether higher or lower is better")
        now, then = current[name], baseline.metrics[name]
        if then == 0.0:
            change = 0.0 if now == 0.0 else float("inf")
        else:
            change = (now - then) / abs(then)
        direction = METRIC_DIRECTIONS[name]
        regression: Optional[float] = None
        if direction == "higher":
            regression = -change
        elif direction == "lower":
            regression = change
        deltas.append(MetricDelta(
            name=name,
            current=now,
            baseline=then,
            change=change,
            regression=regression,
            status=gates.status_of(regression),
        ))
    return deltas
