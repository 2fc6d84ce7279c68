"""Test-only oracle: the structure-of-arrays event queue, moved verbatim
out of ``repro.sim.events``.

A binary heap written in Python over parallel numpy arrays, with
``has_pending`` a vectorized scan of the kind-code array.
``tests/test_events.py`` drives it and ``EventQueue`` with the same
traffic and requires identical pop sequences and pending answers.  Not
importable from ``src/`` on purpose: the engine runs on the ``heapq``
queue only.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.sim.events import Event, EventKind

__all__ = ["ArrayEventQueue"]


#: EventKind <-> small-int codes for the array-backed queue
_KIND_LIST = list(EventKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KIND_LIST)}


class ArrayEventQueue:
    """The structure-of-arrays event queue.

    A binary min-heap ordered by ``(time, seq)`` whose node storage is
    three parallel numpy arrays (``float64`` times, ``int64`` sequence
    numbers, ``int8`` kind codes) plus a payload list.  Pop order is
    identical to ``repro.sim.events.EventQueue``: ``seq`` is unique, so the
    ``(time, seq)`` order is total and any conforming heap pops the
    same sequence.  ``has_pending`` becomes a vectorized scan over the
    kind-code array instead of a walk over event objects.
    """

    #: relative tie tolerance for :meth:`pop_until`.  An event whose time
    #: differs from the query time by less than this *fraction* is a tie:
    #: both times came from the same arithmetic (``now + dt`` chains) and
    #: differ only by accumulated rounding.  A fixed absolute epsilon
    #: breaks at large clocks — 1e-12 is below one ulp of any time beyond
    #: ~4096s, so late-simulation ties would silently stop matching while
    #: early ones did.
    TIE_RTOL = 1e-12

    def __init__(self, capacity: int = 256) -> None:
        capacity = max(int(capacity), 1)
        self._time = np.empty(capacity)
        self._seq = np.empty(capacity, dtype=np.int64)
        self._kind = np.empty(capacity, dtype=np.int8)
        self._payload: List[Any] = [None] * capacity
        self._size = 0
        self._next_seq = 0

    # -- heap plumbing -----------------------------------------------------
    def _grow(self) -> None:
        old = self._time.shape[0]
        new = old * 2
        for name in ("_time", "_seq", "_kind"):
            arr = getattr(self, name)
            grown = np.empty(new, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self._payload.extend([None] * (new - old))

    def _swap(self, a: int, b: int) -> None:
        t, s, k, p = self._time, self._seq, self._kind, self._payload
        t[a], t[b] = t[b], t[a]
        s[a], s[b] = s[b], s[a]
        k[a], k[b] = k[b], k[a]
        p[a], p[b] = p[b], p[a]

    def _less(self, a: int, b: int) -> bool:
        ta = self._time[a]
        tb = self._time[b]
        if ta != tb:
            return bool(ta < tb)
        return bool(self._seq[a] < self._seq[b])

    def _sift_up(self, pos: int) -> None:
        while pos > 0:
            parent = (pos - 1) >> 1
            if self._less(pos, parent):
                self._swap(pos, parent)
                pos = parent
            else:
                break

    def _sift_down(self, pos: int) -> None:
        size = self._size
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._less(right, child):
                child = right
            if self._less(child, pos):
                self._swap(pos, child)
                pos = child
            else:
                break

    def _pop_root(self) -> Event:
        event = Event(
            float(self._time[0]),
            int(self._seq[0]),
            _KIND_LIST[self._kind[0]],
            self._payload[0],
        )
        last = self._size - 1
        if last > 0:
            self._swap(0, last)
        self._payload[last] = None
        self._size = last
        if last > 0:
            self._sift_down(0)
        return event

    # -- queue API ---------------------------------------------------------
    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        if time < 0:
            raise ValueError(f"negative event time: {time}")
        if self._size == self._time.shape[0]:
            self._grow()
        pos = self._size
        seq = self._next_seq
        self._next_seq = seq + 1
        self._time[pos] = time
        self._seq[pos] = seq
        self._kind[pos] = _KIND_CODES[kind]
        self._payload[pos] = payload
        self._size = pos + 1
        self._sift_up(pos)
        return Event(float(time), seq, kind, payload)

    def peek_time(self) -> float:
        """Time of the earliest event, or +inf when empty."""
        return float(self._time[0]) if self._size else float("inf")

    def pop_until(self, time: float) -> List[Event]:
        """Pop every event with ``event.time <= time`` (in order).

        Ties are resolved with a tolerance *relative* to the clock
        (``TIE_RTOL``), so tie handling is scale-invariant: an event one
        rounding error past ``time`` pops now whether the simulation is
        at t=1 or t=1e9.
        """
        cutoff = time + self.TIE_RTOL * max(1.0, abs(time))
        out: List[Event] = []
        while self._size and self._time[0] <= cutoff:
            out.append(self._pop_root())
        return out

    def has_pending(self, *kinds: EventKind) -> bool:
        """Whether any queued event has one of the given kinds (or any
        event at all when no kinds are named) — a vectorized scan over
        the kind-code array."""
        if not kinds:
            return self._size > 0
        if not self._size:
            return False
        codes = np.array([_KIND_CODES[k] for k in kinds], dtype=np.int8)
        return bool(np.isin(self._kind[: self._size], codes).any())

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
