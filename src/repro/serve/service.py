"""The asyncio scheduler daemon: stage → commit → drive, under a watermark.

:class:`SchedulerService` wires a job source, an admission controller,
and a streaming :class:`~repro.sim.engine.Engine` into a long-lived
serving loop:

- a **producer** task reads the source and offers each arrival to the
  admission controller (token bucket + bounded queue);
- the **consumer** loop takes admitted arrivals in batches, *stages*
  them (validation + scheduler prewarm — no engine, cluster, or
  free-vector mutation of any kind), *commits* the staged batch into the
  engine, and *drives* the simulation forward.

Two correctness disciplines:

**Event-time watermark.**  The engine only ever advances *strictly
below* the latest committed arrival time (sources yield in event-time
order, so no future arrival can land behind the clock).  The instant
``T`` itself is processed only once an arrival later than ``T`` has been
committed (or the stream has ended) — a not-yet-committed arrival could
still tie with ``T``, and the batch engine would have handled that tie
in the same scheduling round.  This is what makes a no-drop streamed
replay **bit-identical** to the batch engine on the same trace.

**Tentative/authoritative separation.**  Staging builds a
:class:`StagedBatch` from already-admitted arrivals without touching
authoritative state; an aborted batch (validation failure, shutdown
drain) therefore has *nothing to roll back* — machine free vectors are
only ever changed by committed placements, and can never be
double-deducted by a rejected batch.  :func:`verify_free_vectors`
re-derives every machine's allocation from its running set after commits
to enforce exactly that invariant.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.obs.registry import Histogram, LATENCY_BUCKETS, RollingWindow
from repro.serve.admission import AdmissionController
from repro.serve.sources import Arrival, JobSource
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.obs.registry import Registry

__all__ = [
    "ServeConfig",
    "ServeReport",
    "SchedulerService",
    "StagingError",
    "verify_free_vectors",
]


def _nonzero(**counts: int) -> Dict[str, int]:
    """A labeled counter's children: outcomes seen at least once."""
    return {label: n for label, n in counts.items() if n}


class StagingError(RuntimeError):
    """A batch failed validation while still tentative; nothing was
    committed, so the batch is dropped whole with no rollback needed."""


def verify_free_vectors(cluster: "Cluster") -> List[str]:
    """Re-derive every machine's allocation and check it against the
    booked state.  Returns human-readable violations (empty = clean).

    This is the double-deduction guard: if tentative batch state ever
    leaked into a machine's ``allocated`` vector (or a rollback
    subtracted twice), the sum over its actually-running tasks would no
    longer reproduce the bookkeeping.
    """
    issues: List[str] = []
    for machine in cluster.machines:
        recomputed = np.zeros_like(machine.allocated.data)
        for task in machine.running:
            recomputed += machine.placed_demands(task).data
        if not np.allclose(
            recomputed, machine.allocated.data, rtol=1e-9, atol=1e-6
        ):
            issues.append(
                f"machine {machine.machine_id}: allocated "
                f"{machine.allocated.data.tolist()} != sum of "
                f"{len(machine.running)} running tasks "
                f"{recomputed.tolist()}"
            )
        free = machine.capacity.data - machine.allocated.data
        if not np.allclose(
            machine.free().data, free, rtol=1e-9, atol=1e-6
        ):  # pragma: no cover - free() is defined as this difference
            issues.append(
                f"machine {machine.machine_id}: free vector drifted from "
                "capacity - allocated"
            )
    return issues


#: engine steps per drive slice: the consumer yields to the event loop
#: between slices, so pacing and admission stay live during long drives
DRIVE_SLICE = 512
#: wall seconds the consumer may go without progress *while actively
#: working* before :meth:`SchedulerService.health` reports it stalled
LIVENESS_DEADLINE = 30.0


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs.

    ``max_batch`` caps arrivals committed per consumer iteration;
    ``duration`` is a wall-clock cap on serving (None = run the stream
    out); ``window_seconds`` enables the rolling-window telemetry gauges
    (sliding placements/sec, latency quantiles, admission-reject rate)
    over that span — ``None`` (the default) keeps them off so an
    unobserved daemon pays nothing.  :func:`verify_free_vectors` runs
    after every committed batch.
    """

    max_batch: int = 64
    duration: Optional[float] = None
    window_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")


@dataclass(frozen=True)
class StagedBatch:
    """A validated, tentative batch: jobs held *outside* the engine."""

    jobs: Sequence  # materialized Job objects, event-time ordered
    min_time: float
    max_time: float


@dataclass
class ServeReport:
    """Everything a serving run learned, ready for ``--json``."""

    jobs_offered: int = 0
    jobs_admitted: int = 0
    jobs_committed: int = 0
    jobs_dropped_on_shutdown: int = 0
    jobs_aborted: int = 0
    jobs_finished: int = 0
    batches_committed: int = 0
    batches_aborted: int = 0
    batches_dropped: int = 0
    placements: int = 0
    tasks_total: int = 0
    sim_time: float = 0.0
    wall_seconds: float = 0.0
    drive_seconds: float = 0.0
    invariant_checks: int = 0
    invariant_violations: int = 0
    shutdown_reason: Optional[str] = None
    admission: Dict[str, object] = field(default_factory=dict)
    placement_latency: Dict[str, object] = field(default_factory=dict)
    staging_errors: List[str] = field(default_factory=list)

    @property
    def placements_per_sec(self) -> float:
        """Sustained scheduling throughput: placements per wall second
        spent *driving the engine* (excludes idle waiting on a paced or
        rate-limited stream)."""
        if self.drive_seconds <= 0:
            return 0.0
        return self.placements / self.drive_seconds

    @property
    def placements_per_wall_sec(self) -> float:
        """End-to-end throughput over the whole serving window,
        idle time included."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.placements / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": {
                "offered": self.jobs_offered,
                "admitted": self.jobs_admitted,
                "committed": self.jobs_committed,
                "dropped_on_shutdown": self.jobs_dropped_on_shutdown,
                "aborted": self.jobs_aborted,
                "finished": self.jobs_finished,
            },
            "batches": {
                "committed": self.batches_committed,
                "aborted": self.batches_aborted,
                "dropped": self.batches_dropped,
            },
            "placements": self.placements,
            "tasks_total": self.tasks_total,
            "placements_per_sec": self.placements_per_sec,
            "placements_per_wall_sec": self.placements_per_wall_sec,
            "sim_time": self.sim_time,
            "wall_seconds": self.wall_seconds,
            "drive_seconds": self.drive_seconds,
            "invariants": {
                "checks": self.invariant_checks,
                "violations": self.invariant_violations,
            },
            "shutdown_reason": self.shutdown_reason,
            "admission": self.admission,
            "placement_latency": self.placement_latency,
            "staging_errors": self.staging_errors,
        }


class SchedulerService:
    """The serving loop around a streaming engine.

    The engine must be constructed with ``jobs=[]`` — every job reaches
    it through :meth:`Engine.add_job` at batch commit.  ``registry``
    (optional) gets the service's metric families — pending-queue
    depth, admission decisions, commit counts, placement-latency
    histogram, sustained placements/sec, the window gauges — each
    reading the state below at scrape time.
    """

    def __init__(
        self,
        engine: Engine,
        source: JobSource,
        admission: Optional[AdmissionController] = None,
        config: Optional[ServeConfig] = None,
        registry: Optional["Registry"] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if engine.jobs:
            raise ValueError(
                "a streaming engine starts empty; its jobs arrive "
                "through the service (got a pre-loaded engine)"
            )
        self.engine = engine
        self.source = source
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.config = config if config is not None else ServeConfig()
        self.report = ServeReport()
        self._clock = clock
        self._shutdown = False
        self._shutdown_reason: Optional[str] = None
        #: wall time each admitted job entered the queue (by job name),
        #: consumed when its first placement commits
        self._admit_wall: Dict[str, float] = {}
        #: placement-log entries already latency-scanned
        self._log_seen = 0
        self._latency_hist = Histogram(LATENCY_BUCKETS)
        self._started_wall: Optional[float] = None
        #: what the consumer is doing right now: "init" | "waiting"
        #: (idle on the arrival queue) | "active" (staging/committing/
        #: driving) | "draining" | "done" — read by :meth:`health`
        self._phase = "init"
        self._last_progress = self._now()
        self._committed_max_time: Optional[float] = None
        window = self.config.window_seconds
        self._win_placements = (
            RollingWindow(window) if window is not None else None
        )
        self._win_latency = (
            RollingWindow(window) if window is not None else None
        )
        self._win_offered = (
            RollingWindow(window) if window is not None else None
        )
        self._win_rejected = (
            RollingWindow(window) if window is not None else None
        )
        #: rolling (wall time, {phase: (count, total, self)}) profiler
        #: checkpoints, so /debug/profile can report per-window phase
        #: rates; only fed when the engine carries a profiler AND the
        #: window gauges are on (an unobserved daemon pays nothing)
        self._profile_ring: deque = deque(maxlen=4096)
        if registry is not None:
            self.declare_metrics(registry)

    def declare_metrics(self, registry: "Registry") -> None:
        stats, report = self.admission.stats, self.report
        registry.gauge(
            "repro_serve_queue_depth",
            "Admitted arrivals awaiting commit",
            lambda: self.admission.depth,
        )
        registry.counter(
            "repro_serve_admission_total",
            "Admission decisions by outcome",
            lambda: _nonzero(
                admitted=stats.admitted, rejected=stats.rejected
            ),
            labelnames=("decision",),
        )
        registry.counter(
            "repro_serve_jobs_committed_total",
            "Jobs committed into the engine",
            lambda: report.jobs_committed,
        )
        registry.counter(
            "repro_serve_batches_total",
            "Consumer batches by outcome",
            lambda: _nonzero(
                committed=report.batches_committed,
                aborted=report.batches_aborted,
                dropped=report.batches_dropped,
            ),
            labelnames=("outcome",),
        )
        registry.histogram(
            "repro_serve_placement_latency_seconds",
            "Wall clock from admission to a job's first placement",
            lambda: self._latency_hist,
        )
        registry.gauge(
            "repro_serve_placements_per_sec",
            "Sustained placements per drive-wall second",
            lambda: (
                self.engine.num_placements / report.drive_seconds
                if report.drive_seconds > 0
                else 0.0
            ),
        )
        registry.counter(
            "repro_serve_invariant_violations_total",
            "Free-vector invariant violations detected after commits",
            lambda: report.invariant_violations,
        )
        if self._win_placements is None:
            return
        registry.gauge(
            "repro_serve_window_placements_per_sec",
            "Placements per second over the sliding window",
            lambda: self.window_snapshot()["placements_per_sec"],
        )
        registry.gauge(
            "repro_serve_window_placement_latency_seconds",
            "Sliding-window placement-latency quantiles",
            self._window_latency,
            labelnames=("quantile",),
        )
        registry.gauge(
            "repro_serve_window_admission_reject_rate",
            "Rejected fraction of offered arrivals over the "
            "sliding window",
            lambda: self.window_snapshot()["admission_reject_rate"],
        )

    def _window_latency(self) -> Dict[str, float]:
        snap = self.window_snapshot()
        return {
            str(q): snap[key] if snap[key] is not None else 0.0
            for q, key in (
                (0.5, "latency_p50"),
                (0.95, "latency_p95"),
                (0.99, "latency_p99"),
            )
        }

    def _now(self) -> float:
        # monotonic (not the event-loop clock) so the telemetry plane's
        # HTTP threads can call health()/status_snapshot() without a
        # running loop; asyncio's clock is monotonic-based anyway
        if self._clock is not None:
            return self._clock()
        return monotonic()

    def _touch(self) -> None:
        """Record consumer progress for the liveness deadline."""
        self._last_progress = self._now()

    def request_shutdown(self, reason: str = "requested") -> None:
        """Stop admitting and committing; in-flight (queued) arrivals are
        drained and dropped with accounting, committed jobs run out."""
        if not self._shutdown:
            self._shutdown = True
            self._shutdown_reason = reason

    # -- serving loop ------------------------------------------------------------
    async def serve(self) -> ServeReport:
        """Run the stream to completion (or shutdown); returns the report."""
        start_wall = perf_counter()
        self._started_wall = self._now()
        self._touch()
        self.engine.open_stream()
        self.engine.start()
        producer = asyncio.create_task(self._produce())
        watchdog = (
            asyncio.create_task(self._watchdog())
            if self.config.duration is not None
            else None
        )
        try:
            await self._consume()
        finally:
            for task in (producer, watchdog):
                if task is not None and not task.done():
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
        # the stream is over: finish every committed job
        self._phase = "draining"
        self.engine.close_stream()
        await self._drive(float("inf"))
        self.engine.finalize()
        self._scan_placements()
        self._check_invariants()
        self._phase = "done"
        return self._finish_report(perf_counter() - start_wall)

    async def _watchdog(self) -> None:
        await asyncio.sleep(self.config.duration)
        self.request_shutdown("duration")

    async def _produce(self) -> None:
        try:
            async for arrival in self.source.arrivals():
                if self._shutdown:
                    break
                admitted = await self.admission.offer(arrival)
                if admitted:
                    self._admit_wall[arrival.job.name] = self._now()
                if self._win_offered is not None:
                    now = self._now()
                    self._win_offered.add(now)
                    if not admitted:
                        self._win_rejected.add(now)
        finally:
            await self.admission.close()

    async def _consume(self) -> None:
        while True:
            self._phase = "waiting"
            batch = await self.admission.next_batch(self.config.max_batch)
            self._phase = "active"
            self._touch()
            if batch is None:
                break
            if self._shutdown:
                self.report.jobs_dropped_on_shutdown += len(batch)
                self.report.batches_dropped += 1
                for arrival in batch:
                    self._admit_wall.pop(arrival.job.name, None)
                continue
            try:
                staged = self._stage(batch)
            except StagingError as exc:
                # tentative state only: nothing reached the engine, the
                # cluster, or any machine's free vector — drop and go on
                self.report.batches_aborted += 1
                self.report.jobs_aborted += len(batch)
                self.report.staging_errors.append(str(exc))
                continue
            self._commit(staged)
            # watermark: everything strictly before the newest committed
            # arrival is now safe to simulate
            await self._drive(staged.max_time, inclusive=False)
            self._check_invariants()
            self._checkpoint_profiler(self._now())

    # -- stage / commit / drive ---------------------------------------------------
    def _stage(self, batch: List[Arrival]) -> StagedBatch:
        """Validate a batch while it is still tentative.

        Raises :class:`StagingError` on any event-time violation; only a
        fully valid batch proceeds to commit.  The scheduler prewarm at
        the end is decision-neutral by contract (see
        :meth:`repro.schedulers.base.Scheduler.prewarm_job`).
        """
        floor = self.engine.now
        for arrival in batch:
            if arrival.time != arrival.job.arrival_time:
                raise StagingError(
                    f"arrival record for job {arrival.job.name!r} says "
                    f"t={arrival.time} but the job carries "
                    f"arrival_time={arrival.job.arrival_time}"
                )
            if arrival.time < floor:
                raise StagingError(
                    f"event-time violation: job {arrival.job.name!r} "
                    f"arrives at {arrival.time}, behind the watermark "
                    f"{floor}"
                )
            floor = arrival.time
        for arrival in batch:
            self.engine.scheduler.prewarm_job(arrival.job)
        return StagedBatch(
            jobs=[a.job for a in batch],
            min_time=batch[0].time,
            max_time=batch[-1].time,
        )

    def _commit(self, staged: StagedBatch) -> None:
        for job in staged.jobs:
            self.engine.add_job(job)
        if (
            self._committed_max_time is None
            or staged.max_time > self._committed_max_time
        ):
            self._committed_max_time = staged.max_time
        self.report.jobs_committed += len(staged.jobs)
        self.report.batches_committed += 1

    async def _drive(self, limit: float, inclusive: bool = True) -> None:
        """Advance the engine to the watermark, yielding between slices."""
        start = perf_counter()
        while True:
            steps = self.engine.run_until(
                limit, inclusive=inclusive, max_steps=DRIVE_SLICE
            )
            self._touch()
            if steps:
                self._scan_placements()
            if steps < DRIVE_SLICE:
                break
            await asyncio.sleep(0)
        self.report.drive_seconds += perf_counter() - start

    def _scan_placements(self) -> None:
        """Observe admission→first-placement latency for the placements
        logged since the last scan."""
        log = self.engine.placement_log
        if self._log_seen == len(log):
            return
        now = self._now()
        new = log[self._log_seen:]
        self._log_seen += len(new)
        for task, _machine, _time, _booked in new:
            admitted_at = self._admit_wall.pop(task.job.name, None)
            if admitted_at is not None:
                latency = now - admitted_at
                self._latency_hist.observe(latency)
                if self._win_latency is not None:
                    self._win_latency.add(now, latency)
        if self._win_placements is not None:
            self._win_placements.add(now, float(len(new)))

    def _checkpoint_profiler(self, now: float) -> None:
        """Append a profiler checkpoint for the rolling profile view."""
        profiler = self.engine.profiler
        if profiler is None or self.config.window_seconds is None:
            return
        counts = {
            label: (
                profiler.stats(label).count,
                profiler.stats(label).total,
                profiler.self_total(label),
            )
            for label in profiler.labels()
        }
        self._profile_ring.append((now, counts))
        floor = now - 2.0 * self.config.window_seconds
        while self._profile_ring and self._profile_ring[0][0] < floor:
            self._profile_ring.popleft()

    # -- live introspection (telemetry-plane surface) -----------------------------
    def window_snapshot(self) -> Optional[Dict[str, object]]:
        """The rolling-window readings as plain values (``None`` when
        windows are disabled).  Quantiles of an empty window export as
        ``None`` — strict JSON has no NaN."""
        if self._win_placements is None:
            return None
        now = self._now()

        def finite(q: float) -> Optional[float]:
            value = self._win_latency.quantile(q, now)
            return None if math.isnan(value) else value

        offered = self._win_offered.total(now)
        return {
            "seconds": self.config.window_seconds,
            "placements_per_sec": self._win_placements.rate(now),
            "latency_p50": finite(0.5),
            "latency_p95": finite(0.95),
            "latency_p99": finite(0.99),
            "admission_reject_rate": (
                self._win_rejected.total(now) / offered if offered else 0.0
            ),
        }

    def profile_snapshot(self) -> Dict[str, object]:
        """Live :class:`Profiler` phase snapshot (the ``/debug/profile``
        payload).

        Per phase: cumulative wall time, **self** time (cumulative minus
        nested phases), count and moments since start, plus — when the
        rolling window is on and a checkpoint old enough exists — the
        phase's rate and busy fraction over the trailing window.  Safe
        to call from the telemetry plane's HTTP threads: it only reads;
        the consumer loop owns all writes.
        """
        profiler = self.engine.profiler
        if profiler is None:
            return {
                "enabled": False,
                "phases": {},
                "note": "serve daemon is running without a profiler",
            }
        now = self._now()
        window = self.config.window_seconds
        base = None
        if window is not None:
            # one C-level copy: the consumer appends and evicts meanwhile
            for t, counts in tuple(self._profile_ring):
                if t >= now - window:
                    base = (t, counts)
                    break
        phases: Dict[str, Dict[str, object]] = {}
        for label in profiler.labels():
            stats = profiler.stats(label)
            entry: Dict[str, object] = {
                "count": stats.count,
                "total_seconds": stats.total,
                "self_seconds": profiler.self_total(label),
                "mean_ms": stats.mean * 1e3,
                "max_ms": stats.max * 1e3,
                "stddev_ms": stats.stddev * 1e3,
            }
            if base is not None and now > base[0]:
                span = now - base[0]
                then_count, then_total, then_self = base[1].get(
                    label, (0, 0.0, 0.0)
                )
                d_count = stats.count - then_count
                d_total = stats.total - then_total
                entry["window"] = {
                    "seconds": span,
                    "rate_per_sec": d_count / span,
                    "busy_fraction": d_total / span,
                    "self_fraction": (
                        (profiler.self_total(label) - then_self) / span
                    ),
                    "mean_ms": (
                        d_total / d_count * 1e3 if d_count > 0 else None
                    ),
                }
            phases[label] = entry
        return {
            "enabled": True,
            "phase": self._phase,
            "uptime_seconds": (
                now - self._started_wall
                if self._started_wall is not None
                else 0.0
            ),
            "window_seconds": window,
            "checkpoints": len(self._profile_ring),
            "phases": phases,
        }

    def health(self) -> Dict[str, object]:
        """Liveness snapshot (the ``/healthz`` payload).

        Safe to call from any thread mid-run: it only reads plain
        attributes and counters.  *Stalled* means the consumer has been
        in an active phase (staging/committing/driving) for longer than
        :data:`LIVENESS_DEADLINE` without making progress — idle waiting on
        a paced or empty stream is healthy.  ``watermark.lag_seconds``
        is event-time backlog: how far the engine clock trails the
        newest committed arrival.
        """
        now = self._now()
        stats = self.admission.stats
        engine_now = self.engine.now
        committed_max = self._committed_max_time
        lag = (
            max(committed_max - engine_now, 0.0)
            if committed_max is not None
            else 0.0
        )
        age = now - self._last_progress
        stalled = (
            self._phase in ("active", "draining")
            and age > LIVENESS_DEADLINE
        )
        violations = self.report.invariant_violations
        healthy = not stalled and violations == 0
        return {
            "healthy": healthy,
            "status": (
                "invariant-violation"
                if violations
                else ("stalled" if stalled else "ok")
            ),
            "phase": self._phase,
            "uptime_seconds": (
                now - self._started_wall
                if self._started_wall is not None
                else 0.0
            ),
            "watermark": {
                "committed_max_time": committed_max,
                "engine_now": engine_now,
                "lag_seconds": lag,
            },
            "queue_depth": self.admission.depth,
            "shed": {
                "rejected_rate": stats.rejected_rate,
                "rejected_queue_full": stats.rejected_queue_full,
                "rejected_closed": stats.rejected_closed,
                "dropped_on_shutdown": self.report.jobs_dropped_on_shutdown,
            },
            "liveness": {
                "last_progress_age_seconds": age,
                "deadline_seconds": LIVENESS_DEADLINE,
            },
            "invariant_violations": violations,
        }

    def status_snapshot(self) -> Dict[str, object]:
        """A :class:`ServeReport`-shaped view of the run *so far* (the
        ``/status`` payload), with the live counters the final report
        only fills at shutdown.  Safe to call from any thread."""
        now = self._now()
        stats = self.admission.stats
        report = self.report
        snap = report.as_dict()
        uptime = (
            now - self._started_wall
            if self._started_wall is not None
            else 0.0
        )
        placements = self.engine.num_placements
        drive = report.drive_seconds
        snap["jobs"]["offered"] = stats.offered
        snap["jobs"]["admitted"] = stats.admitted
        snap["jobs"]["finished"] = sum(
            1 for job in self.engine.jobs if job.is_finished
        )
        snap["placements"] = placements
        snap["placements_per_sec"] = placements / drive if drive > 0 else 0.0
        snap["placements_per_wall_sec"] = (
            placements / uptime if uptime > 0 else 0.0
        )
        snap["sim_time"] = self.engine.now
        snap["wall_seconds"] = uptime
        snap["admission"] = stats.as_dict()
        snap["placement_latency"] = self._latency_hist.as_dict()
        snap["staging_errors"] = list(report.staging_errors)
        snap["phase"] = self._phase
        snap["queue_depth"] = self.admission.depth
        snap["window"] = self.window_snapshot()
        return snap

    def _check_invariants(self) -> None:
        issues = verify_free_vectors(self.engine.cluster)
        self.report.invariant_checks += 1
        if issues:
            self.report.invariant_violations += len(issues)

    def _finish_report(self, wall: float) -> ServeReport:
        report = self.report
        report.wall_seconds = wall
        report.jobs_offered = self.admission.stats.offered
        report.jobs_admitted = self.admission.stats.admitted
        report.placements = self.engine.num_placements
        report.tasks_total = sum(
            1 for job in self.engine.jobs for _ in job.all_tasks()
        )
        report.jobs_finished = sum(
            1 for job in self.engine.jobs if job.is_finished
        )
        report.sim_time = self.engine.now
        report.shutdown_reason = self._shutdown_reason
        report.admission = self.admission.stats.as_dict()
        report.placement_latency = self._latency_hist.as_dict()
        return report
