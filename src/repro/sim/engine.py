"""The discrete-event engine.

Each iteration advances the fluid flows to the next interesting instant
(the earlier of the next queued event and the next flow completion),
processes completions and events, then lets the scheduler place tasks on
the machines whose state changed.

The engine keeps the *scheduler's* view (booked estimates on machines)
strictly separate from *physics* (flows built from true task demands), so
mis-estimation and over-allocation behave as they would on a real cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
)

import numpy as np

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import DemandEstimator
from repro.estimation.tracker import ResourceTracker
from repro.metrics.collector import MetricsCollector
from repro.obs.registry import Histogram
from repro.schedulers.base import Placement, Scheduler
from repro.sim.events import EventKind, EventQueue
from repro.sim.fluid import FlowTable
from repro.sim.runtime import build_flows
from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.table import TaskTable
from repro.workload.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.activity.ingestion import ClusterActivity
    from repro.obs.registry import Registry
    from repro.obs.trace import DecisionTrace
    from repro.profiling import Profiler

__all__ = ["Engine", "EngineConfig"]


#: upper bounds of the placements-per-round histogram
_ROUND_BUCKETS = (0, 1, 2, 5, 10, 20, 50, 100)

#: simulated seconds charged to a task with no modeled work
#: (bookkeeping-only tasks)
MIN_TASK_DURATION = 0.05
#: runaway guard: a simulation that passes this instant raises
MAX_TIME = 50_000_000.0
#: failure injection gives up on a task after this many attempts
MAX_TASK_ATTEMPTS = 4


@dataclass(frozen=True)
class EngineConfig:
    """Engine parameters.

    ``tracker_period`` is how often the resource tracker reports (the
    node managers' configurable period of Section 4.1).
    """

    tracker_period: float = 2.0
    track_fairness: bool = False
    track_machine_usage: bool = False
    #: failure injection: probability that a completed attempt is
    #: discarded and the task re-queued (the paper's trace replay mimics
    #: per-task failure probabilities); capped at MAX_TASK_ATTEMPTS
    task_failure_prob: float = 0.0
    seed: int = 0


class Engine:
    """Runs one simulation: (cluster, scheduler, jobs [, activities])."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        jobs: Sequence[Job],
        activities: Iterable["ClusterActivity"] = (),
        estimator: Optional[DemandEstimator] = None,
        tracker: Optional[ResourceTracker] = None,
        config: Optional[EngineConfig] = None,
        profiler: Optional["Profiler"] = None,
        decision_trace: Optional["DecisionTrace"] = None,
        metrics: Optional["Registry"] = None,
    ):
        self.cluster = cluster
        self.scheduler = scheduler
        self.jobs = list(jobs)
        self.activities = list(activities)
        self.config = config if config is not None else EngineConfig()
        self.tracker = tracker
        self.collector = MetricsCollector(
            track_fairness=self.config.track_fairness,
            track_machine_usage=self.config.track_machine_usage,
        )
        self.flows = FlowTable(
            cluster.model, [m.capacity.data for m in cluster.machines]
        )
        self.events = EventQueue()
        self.now = 0.0
        self.rng = np.random.default_rng(self.config.seed)
        #: structure-of-arrays task plane: live tasks occupy stable
        #: slots; state transitions write through from the Task objects
        self.task_table = TaskTable(cluster.model)
        self._task_by_id: Dict[int, Task] = {}
        self._outstanding_flows: Dict[int, int] = {}
        self._activity_by_id: Dict[int, "ClusterActivity"] = {}
        self._activity_flows: Dict[int, int] = {}
        self._unfinished_jobs = len(self.jobs)
        self._dirty: Set[int] = set()
        #: re-entrant stepping state: ``start()`` primes events exactly
        #: once; ``_accepting_jobs`` keeps the engine (and the tracker
        #: report chain) alive while a streaming caller may still inject
        #: jobs via :meth:`add_job`
        self._started = False
        self._accepting_jobs = False
        #: every placement as (task, machine_id, time, booked) — input to
        #: the Section 3.1 constraint auditor (repro.analysis.model)
        self.placement_log: List[tuple] = []
        #: every scheduling round as (time, machines visited, placements,
        #: wall seconds) — the scheduler track of the Perfetto export
        self.round_log: List[tuple] = []
        #: optional timing sink; also handed to the scheduler so it can
        #: record its own phases under the same object
        self.profiler = profiler
        if profiler is not None and hasattr(scheduler, "profiler"):
            scheduler.profiler = profiler
        #: optional decision-event sink (shared with the scheduler) and
        #: metrics registry (same Optional[...] pattern as the profiler:
        #: None costs nothing)
        self.trace = decision_trace
        if decision_trace is not None:
            scheduler.trace = decision_trace
        self.metrics = metrics
        scheduler.bind(cluster, estimator=estimator, tracker=tracker)
        self.estimator = scheduler.estimator
        if metrics is not None:
            self._declare_metrics(metrics)

    def _declare_metrics(self, registry: "Registry") -> None:
        """Declare the engine's metric families and its parts'.  Every
        family reads a store the run keeps anyway, when scraped."""
        collector = self.collector
        registry.counter(
            "repro_engine_rounds_total",
            "Scheduling rounds run",
            lambda: len(self.round_log),
        )
        registry.counter(
            "repro_engine_placements_total",
            "Task placements applied",
            lambda: self.num_placements,
        )
        registry.counter(
            "repro_engine_tasks_finished_total",
            "Task completions",
            lambda: len(collector.task_durations),
        )
        registry.counter(
            "repro_engine_task_failures_total",
            "Failed (retried) task attempts",
            lambda: collector.task_failures,
        )
        registry.counter(
            "repro_engine_jobs_finished_total",
            "Job completions",
            lambda: len(self.jobs) - self._unfinished_jobs,
        )
        registry.gauge(
            "repro_engine_event_queue_depth",
            "Pending simulator events",
            lambda: len(self.events),
        )
        registry.gauge(
            "repro_engine_sim_time_seconds",
            "Current simulation time",
            lambda: self.now,
        )
        registry.histogram(
            "repro_engine_round_placements",
            "Placements made per scheduling round",
            self._round_placements,
        )
        self.flows.declare_metrics(registry)
        if self.tracker is not None:
            self.tracker.declare_metrics(registry)
        # only some schedulers and estimators keep tallies worth scraping
        for part in (self.scheduler, self.estimator):
            declare = getattr(part, "declare_metrics", None)
            if declare is not None:
                declare(registry)

    def _round_placements(self) -> Histogram:
        """Placements per round, binned from ``round_log`` when read."""
        hist = Histogram(_ROUND_BUCKETS)
        for entry in tuple(self.round_log):
            hist.observe(entry[2])
        return hist

    @property
    def num_placements(self) -> int:
        """Total placements applied."""
        return len(self.placement_log)

    # -- public API -------------------------------------------------------------
    def run(self) -> MetricsCollector:
        """Run to completion; returns the metrics collector."""
        self.start()
        while not self._finished():
            t_next = self.next_instant()
            if t_next == float("inf"):
                self._raise_stuck()
            self._step_to(t_next)
        return self.finalize()

    # -- re-entrant stepping ----------------------------------------------------
    #
    # ``run()`` above is one-shot; a streaming caller (repro.serve) drives
    # the same loop body incrementally: ``start()`` once, ``add_job()`` as
    # arrivals are committed, ``run_until()`` to advance simulated time up
    # to an event-time watermark, and ``finalize()`` when the stream ends.

    def start(self) -> None:
        """Prime the event queue; idempotent (``run`` calls it too)."""
        if not self._started:
            self._started = True
            self._prime_events()

    def next_instant(self) -> float:
        """The next interesting time: earliest queued event or flow
        completion (+inf when neither is pending)."""
        return min(
            self.events.peek_time(),
            self.now + self.flows.time_to_next_completion(),
        )

    def open_stream(self) -> None:
        """Declare that more jobs may arrive via :meth:`add_job`.

        While open, the engine never reports :meth:`_finished` and the
        tracker report chain stays alive through idle periods — exactly
        as a batch run behaves while primed arrivals are still queued.
        """
        self._accepting_jobs = True

    def close_stream(self) -> None:
        """No further :meth:`add_job` calls will come."""
        self._accepting_jobs = False

    def add_job(self, job: Job) -> None:
        """Commit a job that arrived after construction (streaming mode).

        The job's arrival event is queued at ``job.arrival_time``, which
        must not lie in the simulated past — injecting behind the clock
        would rewrite history the scheduler has already acted on.
        """
        if job.arrival_time < self.now:
            raise ValueError(
                f"event-time violation: job {job.name!r} arrives at "
                f"{job.arrival_time} but the clock is already at {self.now}"
            )
        self.jobs.append(job)
        for t in job.all_tasks():
            self._task_by_id[t.task_id] = t
            self.task_table.register(t)
        self._unfinished_jobs += 1
        self.events.push(job.arrival_time, EventKind.JOB_ARRIVAL, job)

    def run_until(
        self,
        limit: float,
        inclusive: bool = True,
        max_steps: Optional[int] = None,
    ) -> int:
        """Advance through every instant up to ``limit``; returns the
        number of steps taken.

        With ``inclusive=False`` the engine stops strictly *below*
        ``limit`` — the streaming watermark discipline: a server that has
        seen arrivals only up to time T must not process the instant T
        itself, because a not-yet-committed arrival could still tie with
        it.  ``max_steps`` bounds one call so an async driver can yield
        control between slices.
        """
        self.start()
        steps = 0
        while not self._finished():
            t_next = self.next_instant()
            if t_next == float("inf"):
                if self._accepting_jobs:
                    break  # idle: waiting for the stream
                self._raise_stuck()
            past_limit = t_next > limit if inclusive else t_next >= limit
            if past_limit:
                break
            self._step_to(t_next)
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        return steps

    def finalize(self) -> MetricsCollector:
        """Take the closing sample; returns the metrics collector."""
        self.collector.sample(self.now, self.cluster, self.flows)
        return self.collector

    def _step_to(self, t_next: float) -> None:
        """One iteration of the simulation loop, advancing to ``t_next``."""
        if t_next > MAX_TIME:
            raise RuntimeError(f"simulation exceeded max_time={MAX_TIME}")
        dt = max(t_next - self.now, 0.0)
        self._accumulate_fairness(dt)
        completed = self.flows.advance(dt)
        self.now = t_next
        self._handle_completed_flows(completed)
        self._handle_events()
        self._run_scheduler()
        self.collector.maybe_sample(self.now, self.cluster, self.flows)

    # -- setup ------------------------------------------------------------------
    def _prime_events(self) -> None:
        for job in self.jobs:
            for t in job.all_tasks():
                self._task_by_id[t.task_id] = t
                self.task_table.register(t)
            self.events.push(job.arrival_time, EventKind.JOB_ARRIVAL, job)
        for activity in self.activities:
            self.events.push(
                activity.start_time, EventKind.ACTIVITY_START, activity
            )
        if self.tracker is not None and self.config.tracker_period > 0:
            self.events.push(
                self.config.tracker_period, EventKind.TRACKER_REPORT, None
            )

    def _finished(self) -> bool:
        return (
            not self._accepting_jobs
            and self._unfinished_jobs == 0
            and self.flows.num_active == 0
            and not self.events.has_pending(
                EventKind.JOB_ARRIVAL, EventKind.ACTIVITY_START
            )
        )

    def _raise_stuck(self) -> None:
        stuck = [
            t
            for t in self._task_by_id.values()
            if t.state is TaskState.RUNNABLE
        ]
        raise RuntimeError(
            f"simulation stuck at t={self.now}: {self._unfinished_jobs} "
            f"unfinished jobs, {len(stuck)} runnable tasks cannot be placed "
            f"(first few: {stuck[:3]})"
        )

    # -- event handling ------------------------------------------------------
    def _handle_events(self) -> None:
        for event in self.events.pop_until(self.now):
            if event.kind is EventKind.JOB_ARRIVAL:
                self._arrive_job(event.payload)
            elif event.kind is EventKind.TASK_FIXED_COMPLETE:
                self._finish_task(event.payload)
            elif event.kind is EventKind.TRACKER_REPORT:
                self._tracker_tick()
            elif event.kind is EventKind.ACTIVITY_START:
                self._start_activity(event.payload)

    def _arrive_job(self, job: Job) -> None:
        job.arrive()
        self.collector.job_arrived(job, self.now)
        # lift barriers behind empty stages; a job with no tasks at all
        # completes at arrival
        job.note_task_finished()
        if job.is_finished:
            job.mark_finished(self.now)
            self.collector.job_finished(job, self.now)
            self._unfinished_jobs -= 1
            return
        self.scheduler.on_job_arrival(job, self.now)
        self._mark_all_dirty()

    def _tracker_tick(self) -> None:
        self.tracker.report(self.now, self.flows)
        # the availability view just moved under every machine: both the
        # engine's dirty set and the scheduler's own mirror must reflect it
        self._mark_all_dirty()
        self.scheduler.mark_all_machines_dirty()
        if self._accepting_jobs or not (
            self._unfinished_jobs == 0 and self.flows.num_active == 0
        ):
            self.events.push(
                self.now + self.config.tracker_period,
                EventKind.TRACKER_REPORT,
                None,
            )

    def _start_activity(self, activity: "ClusterActivity") -> None:
        specs = activity.flow_specs()
        self._activity_flows[activity.activity_id] = len(specs)
        self._activity_by_id[activity.activity_id] = activity
        for spec in specs:
            self.flows.add_flow(spec)

    def _mark_all_dirty(self) -> None:
        self._dirty.update(range(self.cluster.num_machines))

    # -- flow completions ----------------------------------------------------
    def _handle_completed_flows(self, completed: List[int]) -> None:
        finished_tasks: List[Task] = []
        for tag in self.flows.completed_tags(completed):
            kind, ident = tag
            if kind == "task":
                self._outstanding_flows[ident] -= 1
                if self._outstanding_flows[ident] == 0:
                    finished_tasks.append(self._task_by_id[ident])
            elif kind == "activity":
                self._activity_flows[ident] -= 1
                if self._activity_flows[ident] == 0:
                    self._activity_by_id[ident].finish_time = self.now
        for task in finished_tasks:
            self._finish_task(task)

    def _finish_task(self, task: Task) -> None:
        machine = self.cluster.machine(task.machine_id)
        machine.remove(task)
        self._outstanding_flows.pop(task.task_id, None)
        if (
            self.config.task_failure_prob > 0
            and task.attempts + 1 < MAX_TASK_ATTEMPTS
            and self.rng.uniform() < self.config.task_failure_prob
        ):
            # the attempt is lost; release bookkeeping and requeue
            if self.tracker is not None:
                self.tracker.note_completion(task)
            self.scheduler.on_task_failed(task, self.now)
            task.mark_failed(self.now)
            self.collector.task_failed()
            self._dirty.add(machine.machine_id)
            return
        task.mark_finished(self.now)
        self.task_table.release(task)
        self.collector.task_finished(task.duration)
        self.estimator.record_completion(task)
        if self.tracker is not None:
            self.tracker.note_completion(task)
        job = task.job
        released = job.note_task_finished()
        self.scheduler.on_task_finished(task, self.now)
        self._dirty.add(machine.machine_id)
        if released:
            for stage in released:
                self._resolve_shuffle_inputs(stage)
                self.scheduler.on_stage_released(stage, self.now)
            self._mark_all_dirty()
        if job.is_finished and job.finish_time is None:
            job.mark_finished(self.now)
            self.collector.job_finished(job, self.now)
            self._unfinished_jobs -= 1

    def _resolve_shuffle_inputs(self, stage: Stage) -> None:
        """Assign source machines to inputs produced by upstream stages.

        A task input created with empty ``locations`` stands for shuffle
        data; once the barrier lifts we pin each to the machine where some
        parent task actually ran (weighted by parent output size would be
        more faithful; uniform over parents preserves the spread).
        """
        parent_machines = [
            t.machine_id
            for parent in stage.parents
            for t in parent.tasks
            if t.machine_id is not None
        ]
        if not parent_machines:
            parent_machines = [0]
        from repro.workload.task import TaskInput

        for task in stage.tasks:
            if not any(not inp.locations for inp in task.inputs):
                continue
            resolved = []
            for inp in task.inputs:
                if inp.locations:
                    resolved.append(inp)
                else:
                    source = int(
                        parent_machines[
                            int(self.rng.integers(len(parent_machines)))
                        ]
                    )
                    resolved.append(TaskInput(inp.size_mb, (source,)))
            task.inputs = resolved

    # -- scheduling ---------------------------------------------------------
    def _run_scheduler(self) -> None:
        if not self._dirty:
            return
        machine_ids = sorted(self._dirty)
        self._dirty.clear()
        start = perf_counter()
        if self.profiler is not None:
            with self.profiler.time("engine.scheduler_round"):
                placements = self.scheduler.schedule(self.now, machine_ids)
        else:
            placements = self.scheduler.schedule(self.now, machine_ids)
        wall = perf_counter() - start
        self.round_log.append(
            (self.now, len(machine_ids), len(placements), wall)
        )
        if self.trace is not None:
            self.trace.emit(
                "round",
                time=self.now,
                machines=len(machine_ids),
                placements=len(placements),
                queue_depth=len(self.events),
            )
        self._commit_placements(placements)

    def _commit_placements(self, placements: List[Placement]) -> None:
        """Apply a round's placements to the cluster.

        The round loop's commit phase: ``schedule()`` proposes, this
        applies — schedulers never mutate machines inside ``schedule()``.
        """
        for placement in placements:
            self._start_task(placement)

    def _start_task(self, placement: Placement) -> None:
        task = placement.task
        machine = self.cluster.machine(placement.machine_id)
        machine.place(task, placement.booked)
        task.mark_running(placement.machine_id, self.now)
        self.placement_log.append(
            (task, placement.machine_id, self.now, placement.booked)
        )
        if self.trace is not None:
            self.trace.emit(
                "task_start",
                time=self.now,
                job=task.job.name,
                stage=task.stage.name,
                task=task.index,
                machine=placement.machine_id,
            )
        self.scheduler.on_task_started(
            task, placement.machine_id, placement.booked
        )
        if self.tracker is not None:
            self.tracker.note_placement(
                task, placement.machine_id, placement.booked, self.now
            )
        specs = build_flows(
            task, placement.machine_id, self.cluster.topology
        )
        if specs:
            self._outstanding_flows[task.task_id] = len(specs)
            for spec in specs:
                self.flows.add_flow(spec)
        else:
            self.events.push(
                self.now + MIN_TASK_DURATION,
                EventKind.TASK_FIXED_COMPLETE,
                task,
            )

    # -- fairness integrals ----------------------------------------------------
    def _accumulate_fairness(self, dt: float) -> None:
        if not self.collector.track_fairness or dt <= 0:
            return
        shares = {
            job.job_id: self.scheduler.dominant_share(job)
            for job in self.scheduler.active_jobs
            if not job.is_finished
        }
        self.collector.accumulate_fairness(dt, shares)
