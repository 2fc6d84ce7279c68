"""Scheduler interface and shared bookkeeping.

The engine drives a scheduler through four calls:

- :meth:`Scheduler.bind` once, with the cluster (and optional estimator /
  tracker);
- :meth:`Scheduler.on_job_arrival` / :meth:`Scheduler.on_task_finished`
  as the workload evolves;
- :meth:`Scheduler.schedule` whenever anything changed; it returns
  :class:`Placement` decisions which the engine applies.

All schedulers book the demands they *believe* (from the estimator) on the
machines; physics uses the tasks' true demands.  Baseline schedulers differ
from Tetris in which dimensions they *check* before placing, not in what
gets booked — that is precisely the over-allocation story of Section 2.1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, TYPE_CHECKING

import numpy as np

from repro.estimation.estimator import DemandEstimator, OracleEstimator
from repro.resources import ResourceVector
from repro.workload.job import Job, JobState
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.estimation.tracker import ResourceTracker
    from repro.obs.trace import DecisionTrace

__all__ = ["Placement", "Scheduler", "adjust_for_placement"]


def adjust_for_placement(
    demands: ResourceVector, task: Task, machine_id: int
) -> ResourceVector:
    """Adapt an estimated demand vector to a candidate placement.

    Mirrors :meth:`repro.workload.task.Task.demands_on` but for an
    *estimated* profile: network-in demand applies only when some input is
    remote; disk-read demand only when some input is local; output is
    written locally so ``netout`` is cleared.
    """
    remote = task.remote_input_mb(machine_id)
    local = task.input_mb - remote
    adjusted = demands.copy()
    if remote <= 0:
        adjusted.set("netin", 0.0)
    if local <= 0:
        adjusted.set("diskr", 0.0)
    adjusted.set("netout", 0.0)
    return adjusted


@dataclass(frozen=True)
class Placement:
    """One scheduling decision: run ``task`` on ``machine_id``, booking
    ``booked`` (the scheduler's demand estimate adjusted for placement)."""

    task: Task
    machine_id: int
    booked: ResourceVector


class Scheduler(abc.ABC):
    """Base class with job-set and per-job allocation bookkeeping."""

    name = "base"

    def __init__(self) -> None:
        self.cluster: Optional["Cluster"] = None
        self.estimator: DemandEstimator = OracleEstimator()
        self.tracker: Optional["ResourceTracker"] = None
        self.active_jobs: List[Job] = []
        #: per-job booked allocation (sum over its running tasks)
        self.job_alloc: Dict[int, ResourceVector] = {}
        self._booked_by_task: Dict[int, ResourceVector] = {}
        #: job_id -> {dims: dominant share}; an entry lives until the
        #: job's allocation changes (a task starts, finishes or fails)
        self._share_cache: Dict[int, Dict[object, float]] = {}
        #: delay-scheduling state: offers skipped per stage (by stage_id)
        self._stage_skips: Dict[int, int] = {}
        #: dirty-machine tracking: machines whose free vector or candidate
        #: set changed since the scheduler last looked at them.  The engine
        #: passes its own dirty set through ``schedule(machine_ids=...)``;
        #: this mirror lets direct ``schedule(time)`` calls (and schedulers
        #: that opt in) skip machines that cannot have new placements.
        self._dirty_machines: Set[int] = set()
        self._all_machines_dirty: bool = True
        #: offers a stage declines before accepting a non-local slot;
        #: None = one wave of the cluster (set at bind)
        self.locality_delay: Optional[int] = None
        #: optional decision-event sink (repro.obs.trace.DecisionTrace);
        #: like the profiler, None means tracing costs nothing
        self.trace: Optional["DecisionTrace"] = None

    # -- wiring -------------------------------------------------------------
    def bind(
        self,
        cluster: "Cluster",
        estimator: Optional[DemandEstimator] = None,
        tracker: Optional["ResourceTracker"] = None,
    ) -> None:
        self.cluster = cluster
        if estimator is not None:
            self.estimator = estimator
        self.tracker = tracker
        self._share_cache.clear()
        self.mark_all_machines_dirty()

    # -- dirty-machine tracking ------------------------------------------------
    def mark_machine_dirty(self, machine_id: int) -> None:
        """Note that ``machine_id``'s free vector changed."""
        if not self._all_machines_dirty:
            self._dirty_machines.add(machine_id)

    def mark_all_machines_dirty(self) -> None:
        """Note that every machine may have new placements (new candidates
        appeared, or the availability view was globally refreshed)."""
        self._all_machines_dirty = True
        self._dirty_machines.clear()

    def consume_dirty_machines(
        self, machine_ids: Optional[List[int]]
    ) -> Optional[List[int]]:
        """Resolve which machines a scheduling round must visit.

        When the caller supplies ``machine_ids`` (the engine plumbs its
        own ``_dirty`` set through), that set is authoritative and the
        mirrored entries are retired.  With ``machine_ids=None`` the
        scheduler's own dirty bookkeeping answers: ``None`` means "all
        machines", a (possibly empty) list means "only these changed
        since the last round".
        """
        if machine_ids is not None:
            if not self._all_machines_dirty:
                self._dirty_machines.difference_update(machine_ids)
            return machine_ids
        if self._all_machines_dirty:
            self._all_machines_dirty = False
            self._dirty_machines.clear()
            return None
        out = sorted(self._dirty_machines)
        self._dirty_machines.clear()
        return out

    # -- workload callbacks ----------------------------------------------------
    def prewarm_job(self, job: Job) -> None:
        """Optionally pre-compute per-job state *before* the job's
        arrival event fires.

        A streaming service (repro.serve) calls this while staging an
        admitted arrival, so O(tasks) derivations (demand estimates,
        work terms) happen off the arrival drain.
        Implementations must be side-effect free with respect to
        scheduling decisions: a prewarmed arrival and a cold one must
        produce bit-identical placements.
        """

    def on_job_arrival(self, job: Job, time: float) -> None:
        self.active_jobs.append(job)
        self.job_alloc.setdefault(job.job_id, self.cluster.model.zeros())
        # new runnable tasks are candidates everywhere
        self.mark_all_machines_dirty()

    def on_task_started(
        self, task: Task, machine_id: int, booked: ResourceVector
    ) -> None:
        self._booked_by_task[task.task_id] = booked
        self.job_alloc[task.job.job_id].add_inplace(booked)
        self._share_cache.pop(task.job.job_id, None)

    def on_task_finished(self, task: Task, time: float) -> None:
        booked = self._booked_by_task.pop(task.task_id, None)
        if booked is not None:
            self.job_alloc[task.job.job_id].sub_inplace(booked)
        self._share_cache.pop(task.job.job_id, None)
        if task.machine_id is not None:
            self.mark_machine_dirty(task.machine_id)
        if task.job.is_finished:
            self.active_jobs = [
                j for j in self.active_jobs if j.job_id != task.job.job_id
            ]
            self.job_alloc.pop(task.job.job_id, None)

    def on_stage_released(self, stage, time: float) -> None:
        """A barrier lifted and ``stage``'s tasks became runnable."""
        self.mark_all_machines_dirty()

    def on_task_failed(self, task: Task, time: float) -> None:
        """A running attempt died; undo its bookkeeping and requeue it."""
        booked = self._booked_by_task.pop(task.task_id, None)
        if booked is not None:
            self.job_alloc[task.job.job_id].sub_inplace(booked)
        self._share_cache.pop(task.job.job_id, None)
        index = getattr(self, "index", None)
        if index is not None:
            index.requeue(task)
        # the attempt's machine freed up, and the task is a candidate again
        self.mark_all_machines_dirty()

    # -- helpers ---------------------------------------------------------------
    def runnable_jobs(self) -> List[Job]:
        return [
            j
            for j in self.active_jobs
            if j.state is JobState.ACTIVE and j.has_runnable_tasks()
        ]

    def estimated_demands(self, task: Task) -> ResourceVector:
        return self.estimator.estimate(task)

    def booked_demands(self, task: Task, machine_id: int) -> ResourceVector:
        """Placement-adjusted estimate, with rates capped at capacity.

        The cap matters with noisy/over-estimates: a *rate* estimate
        above capacity could never be booked anywhere and would wedge
        the task forever, while a real scheduler simply grants the whole
        machine (the task just runs slower).  Rigid demands (memory) are
        left uncapped: a task that truly needs more memory than any
        machine has is genuinely unschedulable.
        """
        adjusted = adjust_for_placement(
            self.estimated_demands(task), task, machine_id
        )
        machine = self.cluster.machine(machine_id)
        model = machine.capacity.model
        for name, is_fluid in zip(model.names, model.fluid_mask):
            if is_fluid:
                adjusted.set(
                    name,
                    min(adjusted.get(name), machine.capacity.get(name)),
                )
        return adjusted

    def pick_task_with_locality(
        self, index, job: Job, machine_id: int, time: float = 0.0
    ):
        """Delay-scheduling task choice (Zaharia et al., EuroSys 2010).

        The production baselines the paper compares against place map
        tasks on local slots when they can, *waiting* a bounded number of
        scheduling offers before settling for a remote slot.  A stage
        accepts a non-local slot only after declining ``locality_delay``
        offers; a local launch resets its patience.  With a decision
        trace attached, every declined offer is emitted as a
        ``locality_defer`` event.
        """
        limit = self.locality_delay
        if limit is None:
            limit = self.cluster.num_machines
        fallback = None
        fallback_stage = None
        for stage in index.indexed_stages(job):
            local = index.local_candidate(stage, machine_id)
            if local is not None:
                self._stage_skips[stage.stage_id] = 0
                return local
            if fallback is None:
                fallback = index.any_candidate(stage)
                fallback_stage = stage
        if fallback is None:
            return None
        # data for this stage is elsewhere: wait, unless out of patience
        # or the task has no locality preference at all (shuffle reads
        # pinned later, or inputs nowhere local)
        if not any(inp.locations for inp in fallback.inputs):
            return fallback
        skips = self._stage_skips.get(fallback_stage.stage_id, 0)
        if skips >= limit:
            return fallback
        self._stage_skips[fallback_stage.stage_id] = skips + 1
        if self.trace is not None:
            self.trace.emit(
                "locality_defer",
                time=time,
                job=job.name,
                stage=fallback_stage.name,
                machine=machine_id,
                skips=skips + 1,
            )
        return None

    def iter_machine_ids(
        self, machine_ids: Optional[List[int]]
    ) -> List[int]:
        """Machines to consider, least-loaded first.

        Heartbeats from lightly-loaded nodes effectively win the race for
        pending tasks in YARN-like systems, spreading load instead of
        piling tasks onto low-numbered machines.  Sorting by running-task
        count reproduces that (deterministically): the sort key is
        (running-task count, machine id), read straight from the cluster
        state plane's occupancy counters.
        """
        counts = self.cluster.state.num_running
        if machine_ids is None:
            return np.argsort(counts, kind="stable").tolist()
        ids = np.fromiter(machine_ids, dtype=np.intp)
        if ids.size == 0:
            return []
        return ids[np.lexsort((ids, counts[ids]))].tolist()

    def _free_matrix(self) -> np.ndarray:
        """The ``(machines, dims)`` free matrix this scheduler plans
        against (shared storage, read-only).

        With a tracker bound, its availability plane (which folds in
        observed usage from mis-estimates and non-job activity) replaces
        the naive booked-allocation view.
        """
        if self.tracker is not None:
            return self.tracker.available_matrix()
        return self.cluster.state.free_clamped_matrix()

    def machine_free(self, machine_id: int) -> ResourceVector:
        """The free vector this scheduler plans against: a caller-owned
        copy of the machine's :meth:`_free_matrix` row.
        """
        return ResourceVector(
            self.cluster.model, self._free_matrix()[machine_id].copy()
        )

    def dominant_share(self, job: Job, dims=None) -> float:
        """The job's DRF dominant share of the whole cluster, over every
        dimension or (as YARN's DRF does) over ``dims`` only.  Cached
        per job until its allocation changes."""
        alloc = self.job_alloc.get(job.job_id)
        if alloc is None:
            return 0.0
        shares = self._share_cache.setdefault(job.job_id, {})
        share = shares.get(dims)
        if share is None:
            capacity = self.cluster.total_capacity()
            if dims is None:
                share = alloc.dominant_share(capacity)
            else:
                share = 0.0
                for dim in dims:
                    cap = capacity.get(dim)
                    if cap > 0:
                        share = max(share, alloc.get(dim) / cap)
            shares[dims] = share
        return share

    # -- the decision procedure ----------------------------------------------
    @abc.abstractmethod
    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        """Return placements for the current instant.

        ``machine_ids`` restricts attention to machines whose state
        changed since the last call (None means all machines).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
