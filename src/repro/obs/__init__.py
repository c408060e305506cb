"""Zero-perturbation observability: traces, metrics, manifests, reports.

The subsystem has four layers (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — the :class:`TraceRecorder` and the kernel
  observer, attached through the existing ``run(observers=...)`` hook plus
  the trace attach points of the engine, cache, batch scheduler, and the
  partitioned runner. The hard invariant: enabling a recorder leaves
  every table, ledger, and merged report **byte-identical** — recorders
  are read-only and never touch RNG state or account arithmetic; a
  disabled component pays one attribute check.
* :mod:`repro.obs.metrics` — the :class:`MetricsTimeseries` collector,
  sampling engine/cache/economy/batch counters at every settlement
  barrier under the same zero-perturbation contract, emitting sorted
  per-epoch JSONL (``--metrics PATH``).
* :mod:`repro.obs.manifest` — the :class:`RunManifest` serialized next to
  every trace/metrics/report artifact (version, seed, frozen-config hash,
  scheme set, interpreter versions, git sha, mode flags, per-phase
  wall-clock, the process tree's peak RSS, optional cProfile hotspots).
* :mod:`repro.obs.report` — the ``repro report`` pipeline: schema-validated
  ingest of the ``BENCH_*.json`` perf history plus trace/metrics artifacts,
  rendered into versioned JSON + markdown.
"""

from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_hash,
    peak_rss_bytes,
    profile_hotspots,
)
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsTimeseries,
    RecorderTee,
    attach_observability,
)
from repro.obs.report import (
    BENCH_NAMES,
    REPORT_SCHEMA_VERSION,
    BenchIngest,
    ingest_bench_files,
    render_report,
    write_report_artifacts,
)
from repro.obs.schema import (
    validate_bench,
    validate_report,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    KernelTraceObserver,
    TraceRecorder,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "KernelTraceObserver",
    "METRICS_SCHEMA_VERSION",
    "MetricsTimeseries",
    "RecorderTee",
    "attach_observability",
    "RunManifest",
    "build_manifest",
    "config_hash",
    "peak_rss_bytes",
    "profile_hotspots",
    "BENCH_NAMES",
    "REPORT_SCHEMA_VERSION",
    "BenchIngest",
    "ingest_bench_files",
    "render_report",
    "write_report_artifacts",
    "validate_bench",
    "validate_report",
]
