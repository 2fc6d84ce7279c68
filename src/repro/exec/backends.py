"""Pluggable execution backends: run independent tasks, keep spec order.

A backend maps a picklable function over a list of picklable items and
returns one :class:`TaskOutcome` per item, **in item order**, regardless
of completion order.  Two implementations:

- :class:`SerialBackend` — in-process loop, the default.  Exceptions are
  caught per item (failure isolation has the same semantics as the
  process backend), so a grid with one bad cell still yields every other
  cell.
- :class:`ProcessPoolBackend` — a **persistent** pool of long-lived
  worker processes, reused across successive :meth:`map` calls (no
  pool construction per fan-out).  Workers are
  spawned lazily, live until :meth:`close`, and each holds one duplex
  pipe; a hung item can still be *killed* (``timeout`` seconds, enforced
  with ``Process.terminate`` — the worker is replaced by a fresh one),
  and a worker that dies without reporting (OOM kill, segfault,
  ``os._exit``) is replaced and the item retried up to ``retries``
  times.  Deterministic Python exceptions are **not** retried — they
  would fail identically — and are returned as failed outcomes with the
  worker's traceback.

A worker count of ``None`` means 1 (serial).
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _mp_wait
from time import perf_counter
from typing import Callable, List, Optional, Sequence

__all__ = [
    "TaskOutcome",
    "SerialBackend",
    "ProcessPoolBackend",
    "ExecutionError",
    "resolve_workers",
    "get_backend",
]

#: seconds the pool waits on its workers' pipes between deadline checks
_POLL_INTERVAL = 0.05

#: progress callback: (completed_count, total, outcome_just_finished)
ProgressCallback = Callable[[int, int, "TaskOutcome"], None]


class ExecutionError(RuntimeError):
    """A backend run failed and the caller asked for results, not rows."""


@dataclass
class TaskOutcome:
    """Result row for one item: a value or a reported failure."""

    index: int
    ok: bool
    value: object = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1
    #: wall-clock seconds spent inside the (last attempted) call
    wall_seconds: float = 0.0


def resolve_workers(workers: Optional[int] = None) -> int:
    """The worker count: the argument, 1 when it is ``None``."""
    return max(1, int(workers or 1))


def get_backend(workers: Optional[int] = None):
    """The backend for a worker count: serial at 1, process pool above."""
    count = resolve_workers(workers)
    if count <= 1:
        return SerialBackend()
    return ProcessPoolBackend(workers=count)


class SerialBackend:
    """Run every item in-process, in order (the current behavior)."""

    name = "serial"
    workers = 1

    def map(
        self,
        fn: Callable[[object], object],
        items: Sequence[object],
        progress: Optional[ProgressCallback] = None,
    ) -> List[TaskOutcome]:
        items = list(items)
        outcomes: List[TaskOutcome] = []
        for index, item in enumerate(items):
            start = perf_counter()
            try:
                value = fn(item)
                outcome = TaskOutcome(
                    index, True, value=value,
                    wall_seconds=perf_counter() - start,
                )
            except Exception as exc:
                outcome = TaskOutcome(
                    index, False,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                    wall_seconds=perf_counter() - start,
                )
            outcomes.append(outcome)
            if progress is not None:
                progress(len(outcomes), len(items), outcome)
        return outcomes

    def close(self) -> None:
        """Nothing to release; provided for backend-interface symmetry."""


def _pool_worker_main(conn) -> None:
    """Worker entry: serve (fn, item) requests until told to stop.

    Each request is answered with ``("ok", value, None, wall)`` or
    ``("error", message, traceback, wall)``.  ``None`` is the shutdown
    sentinel; a closed pipe (parent gone) also ends the loop.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        fn, item = msg
        start = perf_counter()
        try:
            payload = ("ok", fn(item), None, perf_counter() - start)
        except BaseException as exc:  # report, never crash silently
            payload = (
                "error",
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
                perf_counter() - start,
            )
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


@dataclass
class _Attempt:
    index: int
    item: object
    attempts: int = 0
    #: consecutive hand-off failures (worker died before accepting the
    #: item) — not charged as attempts, but bounded so a pool whose
    #: workers die at startup cannot spin forever
    dispatch_failures: int = 0


class _Worker:
    """Parent-side handle for one pool slot's live process."""

    __slots__ = ("slot", "proc", "conn", "attempt", "deadline", "started")

    def __init__(self, slot: int, proc, conn):
        self.slot = slot
        self.proc = proc
        self.conn = conn
        #: in-flight attempt (None when idle)
        self.attempt: Optional[_Attempt] = None
        self.deadline: Optional[float] = None
        self.started: float = 0.0


class ProcessPoolBackend:
    """Persistent pool of long-lived worker processes.

    ``timeout`` is per attempt (seconds of wall clock before the worker
    is terminated and replaced); ``retries`` bounds how many
    *additional* attempts a timed-out or silently-dead worker's item
    gets, so total attempts are at most ``retries + 1``.  Workers start
    under the platform's default multiprocessing context.

    The pool is usable as a context manager; otherwise call
    :meth:`close` (or rely on daemonized workers dying with the parent).
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        self.workers = resolve_workers(workers)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self.timeout = timeout
        self.retries = retries
        self._ctx = mp.get_context()
        #: one slot per worker; None until first used (lazy spawn)
        self._slots: List[Optional[_Worker]] = [None] * self.workers
        self._closed = False

    # -- worker lifecycle ---------------------------------------------------
    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        worker = _Worker(slot, proc, parent_conn)
        self._slots[slot] = worker
        return worker

    def _worker_for(self, slot: int) -> _Worker:
        worker = self._slots[slot]
        if worker is None or not worker.proc.is_alive():
            if worker is not None:
                self._discard(worker)
            worker = self._spawn(slot)
        return worker

    def _discard(self, worker: _Worker) -> None:
        """Tear down a dead/poisoned worker; its slot respawns on demand."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.proc.terminate()
        worker.proc.join(1.0)
        if worker.proc.is_alive():  # pragma: no cover - stubborn child
            worker.proc.kill()
            worker.proc.join(1.0)
        if self._slots[worker.slot] is worker:
            self._slots[worker.slot] = None

    def close(self) -> None:
        """Shut the pool down: ask workers to exit, then make sure."""
        self._closed = True
        for worker in self._slots:
            if worker is None:
                continue
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self._discard(worker)

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass

    # -- the map loop -------------------------------------------------------
    def map(
        self,
        fn: Callable[[object], object],
        items: Sequence[object],
        progress: Optional[ProgressCallback] = None,
    ) -> List[TaskOutcome]:
        if self._closed:
            raise RuntimeError("backend is closed")
        items = list(items)
        total = len(items)
        results: List[Optional[TaskOutcome]] = [None] * total
        #: one dispatch queue shared by every slot
        queue = deque(_Attempt(i, item) for i, item in enumerate(items))
        done = 0

        def finish(outcome: TaskOutcome) -> None:
            nonlocal done
            results[outcome.index] = outcome
            done += 1
            if progress is not None:
                progress(done, total, outcome)

        def retry_or_fail(
            attempt: _Attempt, error: str, elapsed: float
        ) -> None:
            """Requeue a dead/expired attempt, or fail it for good.

            ``elapsed`` is the wall clock the *attempt actually spent*
            before dying — a timeout on the final permitted attempt must
            surface as a timeout with its real duration, not inherit
            ``self.timeout`` (wrong for silent deaths, and 0.0 when no
            timeout is configured at all).
            """
            if attempt.attempts <= self.retries:
                queue.appendleft(attempt)
            else:
                finish(TaskOutcome(
                    attempt.index, False, error=error,
                    attempts=attempt.attempts,
                    wall_seconds=elapsed,
                ))

        def dispatch(slot: int, attempt: _Attempt) -> bool:
            """Hand one attempt to a slot's worker.

            Returns True when the attempt was *consumed* (accepted by a
            worker, or failed for good).  A worker that died between
            calls is not the item's fault, so the hand-off failure is
            not charged as an attempt — but repeated failures are
            bounded, so an environment whose workers die at startup
            fails the item instead of spinning forever.
            """
            worker = self._worker_for(slot)
            try:
                worker.conn.send((fn, attempt.item))
            except (BrokenPipeError, OSError):
                self._discard(worker)
                attempt.dispatch_failures += 1
                if attempt.dispatch_failures > self.retries:
                    finish(TaskOutcome(
                        attempt.index, False,
                        error="worker died before accepting the item",
                        attempts=max(attempt.attempts, 1),
                    ))
                    return True
                return False
            attempt.dispatch_failures = 0
            attempt.attempts += 1
            worker.attempt = attempt
            worker.started = time.monotonic()
            worker.deadline = (
                None if self.timeout is None
                else worker.started + self.timeout
            )
            return True

        def settle(worker: _Worker) -> None:
            """Consume a reported payload (or EOF) from a busy worker."""
            attempt = worker.attempt
            worker.attempt = None
            try:
                payload = worker.conn.recv()
            except (EOFError, OSError):
                payload = None
            if payload is None:
                exitcode = worker.proc.exitcode
                self._discard(worker)
                retry_or_fail(
                    attempt,
                    f"worker exited with code {exitcode} "
                    "before returning a result",
                    time.monotonic() - worker.started,
                )
            elif payload[0] == "ok":
                finish(TaskOutcome(
                    attempt.index, True, value=payload[1],
                    attempts=attempt.attempts,
                    wall_seconds=payload[3],
                ))
            else:
                finish(TaskOutcome(
                    attempt.index, False, error=payload[1],
                    traceback=payload[2],
                    attempts=attempt.attempts,
                    wall_seconds=payload[3],
                ))

        def expire(worker: _Worker) -> None:
            attempt = worker.attempt
            if worker.conn.poll():
                # the result arrived between the wait and the deadline
                # check: it beat the clock, take it — otherwise a
                # finished run would be reported as timed out (or, once
                # terminated, as a silent worker death)
                settle(worker)
                return
            worker.attempt = None
            self._discard(worker)
            retry_or_fail(
                attempt,
                f"timed out after {self.timeout}s "
                f"(attempt {attempt.attempts})",
                time.monotonic() - worker.started,
            )

        try:
            while done < total:
                # fill idle slots from the queue
                while queue:
                    slot = next(
                        (
                            s
                            for s in range(self.workers)
                            if self._slots[s] is None
                            or self._slots[s].attempt is None
                        ),
                        None,
                    )
                    if slot is None:
                        break
                    if dispatch(slot, queue[0]):
                        queue.popleft()
                busy = {
                    w.conn: w
                    for w in self._slots
                    if w is not None and w.attempt is not None
                }
                if not busy:
                    if done < total:
                        continue  # a dispatch failed; loop respawns
                    break
                for conn in _mp_wait(list(busy), timeout=_POLL_INTERVAL):
                    worker = busy[conn]
                    if worker.attempt is not None:
                        settle(worker)
                now = time.monotonic()
                for worker in list(busy.values()):
                    if (
                        worker.attempt is not None
                        and worker.deadline is not None
                        and now > worker.deadline
                    ):
                        expire(worker)
        except BaseException:
            # interrupted mid-flight: in-flight workers hold unknown
            # state, so tear the whole pool down rather than leak them
            self.close()
            raise
        return results  # type: ignore[return-value]
