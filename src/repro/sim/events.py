"""Event queue for the discrete-event engine.

:class:`EventQueue` is a ``heapq`` min-heap of :class:`Event` tuples
``(time, seq, kind, payload)``.  ``seq`` is unique, so ``(time, seq)``
is a total order: tuple comparison never reaches ``kind`` or
``payload``, and any conforming heap pops the same sequence.  The queue
also keeps a pending count per kind, so ``has_pending`` is a lookup,
not a scan.

``pop_until`` resolves ties with a *relative* tolerance (``TIE_RTOL``),
so tie handling is scale-invariant at any simulated clock.  The
structure-of-arrays heap it is tested against lives in
``tests/event_oracles.py``: the property tests drive both queues with
the same traffic and require identical pop sequences.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Dict, List, NamedTuple

__all__ = ["Event", "EventKind", "EventQueue"]


class EventKind(enum.Enum):
    JOB_ARRIVAL = "job_arrival"
    TASK_FIXED_COMPLETE = "task_fixed_complete"  # tasks with no fluid work
    TRACKER_REPORT = "tracker_report"
    ACTIVITY_START = "activity_start"
    ACTIVITY_STOP = "activity_stop"
    WAKEUP = "wakeup"  # generic scheduler wake-up


class Event(NamedTuple):
    """A timestamped event; ``seq`` breaks ties deterministically."""

    time: float
    seq: int
    kind: EventKind
    payload: Any = None


class EventQueue:
    """A deterministic min-heap of events with per-kind pending counts."""

    #: relative tie tolerance for :meth:`pop_until`.  An event whose time
    #: differs from the query time by less than this *fraction* is a tie:
    #: both times came from the same arithmetic (``now + dt`` chains) and
    #: differ only by accumulated rounding.  A fixed absolute epsilon
    #: breaks at large clocks — 1e-12 is below one ulp of any time beyond
    #: ~4096s, so late-simulation ties would silently stop matching while
    #: early ones did.
    TIE_RTOL = 1e-12

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._next_seq = 0
        #: queued events per kind
        self._pending: Dict[EventKind, int] = dict.fromkeys(EventKind, 0)

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        if time < 0:
            raise ValueError(f"negative event time: {time}")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(float(time), seq, kind, payload)
        heapq.heappush(self._heap, event)
        self._pending[kind] += 1
        return event

    def peek_time(self) -> float:
        """Time of the earliest event, or +inf when empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def pop_until(self, time: float) -> List[Event]:
        """Pop every event with ``event.time <= time`` (in order).

        Ties are resolved with a tolerance *relative* to the clock
        (``TIE_RTOL``), so tie handling is scale-invariant: an event one
        rounding error past ``time`` pops now whether the simulation is
        at t=1 or t=1e9.
        """
        cutoff = time + self.TIE_RTOL * max(1.0, abs(time))
        heap = self._heap
        pending = self._pending
        out: List[Event] = []
        while heap and heap[0][0] <= cutoff:
            event = heapq.heappop(heap)
            pending[event[2]] -= 1
            out.append(event)
        return out

    def has_pending(self, *kinds: EventKind) -> bool:
        """Whether any queued event has one of the given kinds (or any
        event at all when no kinds are named)."""
        if not kinds:
            return bool(self._heap)
        pending = self._pending
        for kind in kinds:
            if pending[kind]:
                return True
        return False

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
