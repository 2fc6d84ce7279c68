"""Test-only oracle: the ``heapq``-of-``Event``-objects event queue,
moved verbatim out of ``repro.sim.events``.

``tests/test_events.py`` drives it and ``ArrayEventQueue`` with the same
traffic and requires identical pop sequences.  Not importable from
``src/`` on purpose: the engine runs on the array queue only.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List

from repro.sim.events import Event, EventKind

__all__ = ["EventQueue"]


class EventQueue:
    """A deterministic min-heap of events."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        if time < 0:
            raise ValueError(f"negative event time: {time}")
        event = Event(time, next(self._seq), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> float:
        """Time of the earliest event, or +inf when empty."""
        return self._heap[0].time if self._heap else float("inf")

    #: relative tie tolerance for :meth:`pop_until`.  An event whose time
    #: differs from the query time by less than this *fraction* is a tie:
    #: both times came from the same arithmetic (``now + dt`` chains) and
    #: differ only by accumulated rounding.  A fixed absolute epsilon
    #: breaks at large clocks — 1e-12 is below one ulp of any time beyond
    #: ~4096s, so late-simulation ties would silently stop matching while
    #: early ones did.
    TIE_RTOL = 1e-12

    def pop_until(self, time: float) -> List[Event]:
        """Pop every event with ``event.time <= time`` (in order).

        Ties are resolved with a tolerance *relative* to the clock
        (``TIE_RTOL``), so tie handling is scale-invariant: an event one
        rounding error past ``time`` pops now whether the simulation is
        at t=1 or t=1e9.
        """
        cutoff = time + self.TIE_RTOL * max(1.0, abs(time))
        out: List[Event] = []
        while self._heap and self._heap[0].time <= cutoff:
            out.append(heapq.heappop(self._heap))
        return out

    def has_pending(self, *kinds: EventKind) -> bool:
        """Whether any queued event has one of the given kinds (or any
        event at all when no kinds are named).  The supported way for
        callers to ask "is anything still coming?" without reaching into
        the heap."""
        if not kinds:
            return bool(self._heap)
        wanted = set(kinds)
        return any(event.kind in wanted for event in self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
