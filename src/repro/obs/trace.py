"""Trace spans and counters with a zero-perturbation contract.

A :class:`TraceRecorder` is an append-only sink: components that carry one
(the economy engine, the cache manager, the batch scheduler, the kernel
observer) call :meth:`TraceRecorder.count` / :meth:`TraceRecorder.event`
behind a single ``if self._trace is not None`` check, so the hot loop pays
one attribute test when tracing is off and a list append when it is on.

The hard invariant — enforced by the observer-purity test suite and the CI
byte-diff — is that attaching recorders changes **nothing** about a run:
recorders never read or advance RNG state, never touch account arithmetic,
and only observe values the run computed anyway. Everything a recorder
stores is plain picklable data; per-partition recorders are merged when
the partitioned cell completes, with :meth:`TraceRecorder.absorb`.

Emission is deterministic: :meth:`TraceRecorder.jsonl_lines` sorts records
by ``(time_s, source, sequence)`` and serializes with sorted keys, so the
same run always produces the same bytes.

Example:
    >>> recorder = TraceRecorder(source="demo")
    >>> recorder.count("cache:admit")
    >>> recorder.event("handoff", time_s=30.0, key="index:a", owner=1)
    >>> [line.startswith('{"') for line in recorder.jsonl_lines()]
    [True, True, True]
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.simulator.events import (
    Event,
    MaintenanceSettlementEvent,
    QueryArrivalEvent,
)

#: Bumped whenever the JSONL record shape changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: One stored record: ``(time_s, sequence, source, kind, fields)``.
TraceRecord = Tuple[float, int, str, str, Dict[str, object]]


class TraceRecorder:
    """Append-only sink for trace events and counters.

    Args:
        source: label stamped on every record this recorder produces
            (``"run"`` for the main path, ``"partition1"`` for
            per-partition recorders merged later).
    """

    def __init__(self, source: str = "run") -> None:
        self.source = source
        self._records: List[TraceRecord] = []
        self._counters: Dict[str, Dict[str, int]] = {}
        self._sequence = 0

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter of this recorder's source."""
        bucket = self._counters.setdefault(self.source, {})
        bucket[name] = bucket.get(name, 0) + n

    def event(self, kind: str, time_s: float, **fields: object) -> None:
        """Record one timestamped event."""
        self._records.append(
            (time_s, self._sequence, self.source, kind, fields))
        self._sequence += 1

    def span(self, kind: str, start_s: float, end_s: float,
             **fields: object) -> None:
        """Record a span (timestamped at its end, duration derived)."""
        self.event(kind, time_s=end_s, start_s=start_s,
                   duration_s=end_s - start_s, **fields)

    # -- introspection -----------------------------------------------------

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        """Every record, in append order."""
        return tuple(self._records)

    @property
    def counters(self) -> Dict[str, Dict[str, int]]:
        """Counters per source (a copy)."""
        return {source: dict(bucket)
                for source, bucket in self._counters.items()}

    def counter(self, name: str, source: Optional[str] = None) -> int:
        """One counter's value (defaults to this recorder's own source)."""
        bucket = self._counters.get(source or self.source, {})
        return bucket.get(name, 0)

    def __len__(self) -> int:
        return len(self._records)

    # -- merging -----------------------------------------------------------

    def absorb(self, other: "TraceRecorder") -> None:
        """Fold another recorder's records and counters into this one.

        Records keep their original source tag and per-source sequence,
        so a merged recorder still sorts deterministically; counters merge
        per source (summing only within the same source, so one source's
        counters are never double-counted into another's).
        """
        self._records.extend(other._records)
        for source, bucket in other._counters.items():
            target = self._counters.setdefault(source, {})
            for name, value in bucket.items():
                target[name] = target.get(name, 0) + value

    # -- emission ----------------------------------------------------------

    def jsonl_lines(self) -> List[str]:
        """The trace as sorted JSONL lines (deterministic bytes).

        Line 1 is a header carrying the schema version; then every event
        record sorted by ``(time_s, source, sequence)``; then one counter
        line per ``(source, counter)`` pair in sorted order.
        """
        lines = [json.dumps(
            {"kind": "trace_header",
             "schema_version": TRACE_SCHEMA_VERSION,
             "events": len(self._records),
             "sources": sorted({record[2] for record in self._records}
                               | set(self._counters))},
            sort_keys=True)]
        ordered = sorted(self._records,
                         key=lambda record: (record[0], record[2], record[1]))
        for time_s, sequence, source, kind, fields in ordered:
            payload = {"kind": kind, "time_s": time_s, "source": source,
                       "seq": sequence}
            payload.update(fields)
            lines.append(json.dumps(payload, sort_keys=True))
        for source in sorted(self._counters):
            bucket = self._counters[source]
            for name in sorted(bucket):
                lines.append(json.dumps(
                    {"kind": "counter", "source": source, "name": name,
                     "value": bucket[name]},
                    sort_keys=True))
        return lines

    def write(self, path: str) -> None:
        """Write the trace as JSONL to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.jsonl_lines():
                handle.write(line + "\n")


class KernelTraceObserver:
    """Read-only kernel observer: dispatch counts + settlement spans.

    Registered for the base :class:`~repro.simulator.events.Event` type
    through the standard ``run(observers=...)`` hook, so it sees every
    dispatched event *after* the built-in handlers ran (observers register
    last). It counts dispatches per event class and records a
    ``settlement_barrier`` span from the previous barrier (or the first
    observed instant) to each maintenance settlement, tagged with the
    kernel's query-dispatch progress.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self._recorder = recorder
        self._span_start: Optional[float] = None

    def __call__(self, event: Event, kernel) -> None:
        recorder = self._recorder
        recorder.count(f"event:{type(event).__name__}")
        if self._span_start is None:
            self._span_start = event.time_s
        if isinstance(event, MaintenanceSettlementEvent):
            recorder.span(
                "settlement_barrier",
                start_s=self._span_start,
                end_s=event.time_s,
                queries_dispatched=kernel.dispatch_count(QueryArrivalEvent),
                events_dispatched=kernel.dispatch_count(),
                final=event.final,
            )
            self._span_start = event.time_s


def kernel_observer_pair(recorder: TraceRecorder):
    """The ``(event type, handler)`` pair ``run(observers=...)`` expects."""
    return (Event, KernelTraceObserver(recorder))
