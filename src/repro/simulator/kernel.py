"""The general event-driven simulation kernel.

The kernel owns the clock and the event queue and knows nothing about
caching schemes, maintenance, or workloads: behaviour is supplied by
*handlers* registered per event type. Popping follows the stable
``(time, priority, FIFO)`` order documented in
:mod:`repro.simulator.events`; for each popped event the clock advances
to the event's instant and every handler whose registered type matches
(by ``isinstance``) runs in registration order; the matching handlers
are looked up once per event type and cached until the next
:meth:`~SimulationKernel.register`. Handlers receive the
kernel itself and may schedule follow-up events, which is how periodic
settlements and scenario phase chains are expressed.

Example:
    >>> from repro.simulator.events import Event
    >>> kernel = SimulationKernel()
    >>> seen = []
    >>> kernel.register(Event, lambda event, k: seen.append(event.time_s))
    >>> kernel.schedule_all([Event(time_s=2.0), Event(time_s=1.0)])
    >>> kernel.run()
    2
    >>> seen, kernel.now
    ([1.0, 2.0], 2.0)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.errors import SimulationError
from repro.simulator.clock import SimulationClock
from repro.simulator.events import Event, EventQueue

#: A handler receives the event being dispatched and the kernel (so it can
#: read the clock or schedule follow-up events).
EventHandler = Callable[[Event, "SimulationKernel"], None]


class SimulationKernel:
    """Dispatches events to registered handlers along a shared clock."""

    def __init__(self, start_time_s: float = 0.0) -> None:
        self._clock = SimulationClock(start_time_s=start_time_s)
        self._queue = EventQueue()
        self._handlers: List[Tuple[Type[Event], EventHandler]] = []
        # Per concrete event type: its matching handlers in registration
        # order. Built on first dispatch of a type, dropped by register().
        self._dispatch_table: Dict[Type[Event], Tuple[EventHandler, ...]] = {}
        self._dispatched: Dict[Type[Event], int] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def clock(self) -> SimulationClock:
        """The shared simulation clock."""
        return self._clock

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._clock.now

    @property
    def pending_events(self) -> int:
        """How many events are still queued."""
        return len(self._queue)

    def dispatch_count(self, event_type: Optional[Type[Event]] = None) -> int:
        """Events dispatched so far, in total or for one event type."""
        if event_type is None:
            return sum(self._dispatched.values())
        return self._dispatched.get(event_type, 0)

    # -- wiring ----------------------------------------------------------------

    def register(self, event_type: Type[Event], handler: EventHandler) -> None:
        """Register ``handler`` for events matching ``event_type``.

        Matching is by ``isinstance``, so a handler registered for
        :class:`Event` sees everything. Handlers for one event run in
        registration order — a second stable order on top of the queue's.

        Args:
            event_type: the :class:`~repro.simulator.events.Event` subclass
                (or :class:`Event` itself) the handler reacts to.
            handler: callable invoked as ``handler(event, kernel)``.

        Raises:
            SimulationError: for a non-Event type or a non-callable handler.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, Event)):
            raise SimulationError(
                f"handlers must be registered for Event types, got {event_type!r}"
            )
        if not callable(handler):
            raise SimulationError("handler must be callable")
        self._handlers.append((event_type, handler))
        self._dispatch_table.clear()

    def schedule(self, event: Event) -> None:
        """Queue one event; it must not be in the simulated past.

        Args:
            event: the event to queue.

        Raises:
            SimulationError: if the event predates the current clock.

        Example:
            >>> from repro.simulator.events import Event
            >>> kernel = SimulationKernel(start_time_s=5.0)
            >>> kernel.schedule(Event(time_s=1.0))
            Traceback (most recent call last):
                ...
            repro.errors.SimulationError: cannot schedule an event at 1.0 before the current time 5.0
        """
        if event.time_s < self._clock.now - 1e-9:
            raise SimulationError(
                f"cannot schedule an event at {event.time_s} "
                f"before the current time {self._clock.now}"
            )
        self._queue.push(event)

    def schedule_all(self, events) -> None:
        """Queue many events."""
        for event in events:
            self.schedule(event)

    # -- the loop --------------------------------------------------------------

    def run(self, until_s: Optional[float] = None) -> int:
        """Dispatch queued events in order; return how many were dispatched.

        Args:
            until_s: stop *before* dispatching any event later than this
                instant (events at exactly ``until_s`` still dispatch);
                ``None`` drains the queue.

        Raises:
            SimulationError: if an event has no matching handler — an
                unhandled event is a wiring bug, not a soft no-op.
        """
        dispatched = 0
        queue = self._queue
        advance_to = self._clock.advance_to
        table = self._dispatch_table
        counts = self._dispatched
        while not queue.empty:
            if until_s is not None and queue.peek_time() > until_s:
                break
            event = queue.pop()
            advance_to(event.time_s)
            event_type = type(event)
            handlers = table.get(event_type)
            if handlers is None:
                handlers = self._handlers_for(event_type)
            for handler in handlers:
                handler(event, self)
            counts[event_type] = counts.get(event_type, 0) + 1
            dispatched += 1
        return dispatched

    def _handlers_for(self, event_type: Type[Event]
                      ) -> Tuple[EventHandler, ...]:
        """The handlers matching ``event_type``, cached until a register()."""
        handlers = tuple(
            handler for registered_type, handler in self._handlers
            if issubclass(event_type, registered_type)
        )
        if not handlers:
            raise SimulationError(
                f"no handler registered for {event_type.__name__}"
            )
        self._dispatch_table[event_type] = handlers
        return handlers
