"""The kernel-side arrival source every run is fed by.

Scheduling every query and lifecycle marker up front would cost an
O(workload) kernel heap before the first event dispatches. This module
keeps only a small *lookahead window* of the arrivals inside the kernel:

:class:`StreamingArrivalSource` wraps a time-ordered iterator of queries
and lifecycle markers (a
:class:`~repro.workload.population.PopulationStream`, or a materialised
list wrapped by :func:`repro.simulator.simulation._list_arrivals`), primes
the first ``lookahead`` events, and registers itself as one more handler
on exactly the event types it emits. Every time one of its own events
dispatches it tops the window back up, so the kernel's frontier always
holds the next stream items until the stream is exhausted — the queue
can never starve while input remains.

Dispatch order is the order scheduling everything up front would give:

* the stream yields items in non-decreasing time order and the source
  schedules them in stream order, so same-``(time, priority)`` ties keep
  the stream's order;
* cross-kind ties are sequenced by the event priority ranks
  (tenant arrival 4 < tenant churn 6 < settlement 10 < query 30), which
  don't care when an event entered the queue.

The source never mutates simulation state — it only converts stream items
into scheduled events — so it composes with observers and the purity
contracts unchanged. Every query it schedules is also handed, in stream
order, to an optional ``on_queries`` callback before it can dispatch; the
drivers pass the schemes' append-only priming hook (a partitioned cell
routes each query to its partition's), so the batch planner scores the
lookahead window in vectorized blocks instead of one query at a time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import SimulationError
from repro.simulator.events import (
    Event,
    QueryArrivalEvent,
    TenantArrivalEvent,
    TenantChurnEvent,
)
from repro.simulator.kernel import SimulationKernel
from repro.workload.population import TenantLifecycleMarker
from repro.workload.query import Query

#: How many stream items the source keeps scheduled ahead of the kernel's
#: clock. Big enough that the queries inside it make worthwhile vectorized
#: planning blocks, small enough that the kernel heap stays O(1) in the
#: workload size.
DEFAULT_LOOKAHEAD = 1024


class StreamingArrivalSource:
    """Feeds a time-ordered query/marker stream into the kernel lazily.

    Args:
        stream: an iterable yielding :class:`~repro.workload.query.Query`
            and :class:`~repro.workload.population.TenantLifecycleMarker`
            objects in non-decreasing time order.
        lookahead: number of stream items kept scheduled ahead.
        on_queries: optional callback receiving each refill's newly
            scheduled queries, in stream order, before any of them
            dispatches.
    """

    def __init__(self, stream: Iterable[Union[Query, TenantLifecycleMarker]],
                 lookahead: int = DEFAULT_LOOKAHEAD,
                 on_queries: Optional[Callable[[Sequence[Query]], None]] = None
                 ) -> None:
        if lookahead <= 0:
            raise SimulationError("lookahead must be positive")
        self._iterator: Iterator = iter(stream)
        self._lookahead = lookahead
        self._on_queries = on_queries
        self._in_flight = 0
        self._exhausted = False
        self._primed = False
        self.events_emitted = 0

    # -- wiring ----------------------------------------------------------------

    def register(self, kernel: SimulationKernel) -> None:
        """Subscribe to the event types this source emits (for refills)."""
        kernel.register(QueryArrivalEvent, self)
        kernel.register(TenantArrivalEvent, self)
        kernel.register(TenantChurnEvent, self)

    def prime_window(self, kernel: SimulationKernel) -> None:
        """Schedule the first lookahead window; call once before ``run()``."""
        if self._primed:
            raise SimulationError("a StreamingArrivalSource primes only once")
        self._primed = True
        self._refill(kernel)

    # -- kernel handler --------------------------------------------------------

    def __call__(self, event: Event, kernel: SimulationKernel) -> None:
        """One of our events dispatched: top the window back up."""
        if self._in_flight > 0:
            self._in_flight -= 1
        if not self._exhausted:
            self._refill(kernel)

    # -- internals -------------------------------------------------------------

    def _refill(self, kernel: SimulationKernel) -> None:
        queries: List[Query] = []
        while self._in_flight < self._lookahead:
            item = next(self._iterator, None)
            if item is None:
                self._exhausted = True
                break
            if isinstance(item, TenantLifecycleMarker):
                event_type = (TenantArrivalEvent if item.kind == "arrival"
                              else TenantChurnEvent)
                kernel.schedule(event_type(time_s=item.time_s,
                                           tenant_id=item.tenant_id))
            else:
                queries.append(item)
                kernel.schedule(QueryArrivalEvent(time_s=item.arrival_time,
                                                  query=item))
            self._in_flight += 1
            self.events_emitted += 1
        if queries and self._on_queries is not None:
            self._on_queries(queries)
