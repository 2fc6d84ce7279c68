"""Span recorder for the traced benchmark run.

Everything here lives in the benchmark: a traced repetition installs
timing wrappers as *instance attributes* over the public methods through
which the engine calls each layer, and removes nothing from ``repro``.
An untraced repetition never constructs a :class:`Tracer`.

Accounting model: one stack of open spans.  When a span closes, its
duration is charged to its parent's ``child`` total, and ``duration -
child`` is the span's **self time**.  Because every instant inside the
root span belongs to exactly one innermost open span, self times summed
over all span names equal the root's duration — that identity is what
``bench.unattributed_frac`` checks against the harness's own wall clock.

Every call is folded into ``(count, total, self)`` per ``(name,
parent)``.  Calls of the few *coarse* names (a scheduling round, a
tracker report, the serve stages, set-up phases, one engine run) are
also kept as raw ``(name, start, end, parent, run_id)`` spans for the
Chrome trace file; the hot per-event calls (event queue, fluid table,
notifications, collector) run to hundreds of thousands per repetition
and are kept folded only.
"""

from __future__ import annotations

import json
import types
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

__all__ = ["Tracer", "UNWRAPPED"]

#: classes with ``__slots__`` cannot take instance-attribute wrappers;
#: their time stays in the caller's self time (``sim.engine`` mostly)
UNWRAPPED = (
    "Machine.place",
    "Machine.remove",
    "TaskTable.register",
    "TaskTable.release",
    "Task.mark_running",
    "Task.mark_finished",
)

_ROOT = "<outside>"


class Tracer:
    """Open-span stack plus the folded and raw records of one repetition."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        #: open frames ``[name, child_seconds, index of the nearest raw
        #: span, ...]``; the sentinel absorbs time outside every span
        self._stack: List[list] = [[_ROOT, 0.0, -1]]
        #: (name, parent name) -> [count, total seconds, self seconds]
        self.folded: Dict[Tuple[str, str], list] = {}
        #: raw spans ``(name, start, end, parent span index, run_id)``
        self.spans: List[tuple] = []
        self._restore: List[tuple] = []

    # -- recording -------------------------------------------------------------
    def _enter(self, name: str) -> list:
        """Open a raw span (the folded-only path is inlined in ``wrap``)."""
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps indices in start order
        frame = [name, 0.0, index, self._stack[-1][2]]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[1] += duration
        record = self.folded.setdefault((frame[0], parent[0]), [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame[1]
        self.spans[frame[2]] = (frame[0], start, end, frame[3], self.run_id)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A raw span around a call the harness itself makes."""
        frame = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, perf_counter())

    # -- wrappers --------------------------------------------------------------
    def wrap(self, obj: object, attr: str, name: str, raw: bool = False) -> None:
        """Shadow ``obj.attr`` with a timed call.  ``obj`` is an instance
        (``attr`` a public method) or a module whose public function the
        program looks up at call time (``verify_free_vectors``)."""
        fn = getattr(obj, attr)
        enter, leave, clock = self._enter, self._exit, perf_counter
        stack, folded = self._stack, self.folded
        #: parent name -> this wrapper's folded record (same list objects
        #: as in ``self.folded``; spares the hot path a tuple per call)
        records: Dict[str, list] = {}

        def timed(*args, **kwargs):
            frame = enter(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, start, clock())

        def timed_folded(*args, **kwargs):
            # _enter/_exit inlined: these run a few hundred thousand
            # times per repetition and are the tracing overhead
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                del stack[-1]
                parent[1] += duration
                record = records.get(parent[0])
                if record is None:
                    record = records[parent[0]] = folded.setdefault(
                        (name, parent[0]), [0, 0.0, 0.0]
                    )
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]

        self._install(obj, attr, timed if raw else timed_folded)

    def wrap_async(self, obj: object, attr: str, name: str) -> None:
        """Shadow a coroutine method, timing only the slices in which it
        actually runs: a suspended ``await`` belongs to whichever task the
        event loop resumes meanwhile, not to this span."""
        fn = getattr(obj, attr)
        enter, leave, clock = self._enter, self._exit, perf_counter

        @types.coroutine
        def timed(*args, **kwargs):
            coro = fn(*args, **kwargs)
            value, error = None, None
            while True:
                frame = enter(name)
                start = clock()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(frame, start, clock())
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:  # forwarded into ``coro`` above
                    value, error = None, exc

        self._install(obj, attr, timed)

    def _install(self, obj: object, attr: str, replacement) -> None:
        had_own = attr in vars(obj)
        self._restore.append((obj, attr, had_own, vars(obj).get(attr)))
        setattr(obj, attr, replacement)

    def uninstall(self) -> None:
        """Remove every wrapper; instances fall back to their class's
        methods and patched module attributes get their function back."""
        while self._restore:
            obj, attr, had_own, previous = self._restore.pop()
            if had_own:
                setattr(obj, attr, previous)
            else:
                delattr(obj, attr)

    # -- queries ---------------------------------------------------------------
    def _sum(self, column: int, names: Tuple[str, ...], prefix: bool):
        return sum(
            record[column]
            for (name, _), record in self.folded.items()
            if (name.startswith(names) if prefix else name in names)
        )

    def count(self, *names: str, prefix: bool = False) -> int:
        """Calls of the named spans (of every span under the given name
        prefixes with ``prefix=True``)."""
        return self._sum(0, names, prefix)

    def total(self, *names: str, prefix: bool = False) -> float:
        """Inclusive seconds (children included)."""
        return self._sum(1, names, prefix)

    def self_time(self, *names: str, prefix: bool = False) -> float:
        return self._sum(2, names, prefix)

    # -- export ----------------------------------------------------------------
    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Raw spans as Chrome trace-event ``X`` records (microseconds,
        relative to the first span), the folded table under ``folded``."""
        spans = self.spans  # written after the run: every span is closed
        origin = min((s[1] for s in spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": run_id,
                "tid": 0,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, start, end, parent, run_id) in enumerate(spans)
        ]
        folded = [
            {
                "name": name,
                "parent": parent,
                "count": rec[0],
                "total_s": rec[1],
                "self_s": rec[2],
            }
            for (name, parent), rec in sorted(self.folded.items())
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "metadata": metadata,
                    "folded": folded,
                },
                handle,
            )
