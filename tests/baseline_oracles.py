"""Test-only oracles: the four baseline schedulers as they stood before
``FairShareScheduler`` (commit ba1445e), kept verbatim.

Each class carries its own hand-written ``for machine -> while room ->
for job in <fresh full sort> -> pick -> fit -> claim`` loop on the plain
``Scheduler`` base, so nothing here shares code with
``repro.schedulers.fair_share``.  ``tests/test_baseline_identity.py``
runs every baseline against its oracle and requires SHA-256-equal
placement logs and byte-equal ``locality_defer`` streams.  Not
importable from ``src/`` on purpose: this is the slow reference, not a
scheduler anyone should pick.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.resources import ResourceVector
from repro.schedulers.base import Placement, Scheduler
from repro.schedulers.stage_index import StageIndex
from repro.workload.job import Job
from repro.workload.task import Task

__all__ = ["ORACLES"]


# -- slot_fair.py at ba1445e ------------------------------------------------
class OracleSlotFair(Scheduler):
    """Fair sharing of memory-defined slots."""

    name = "slot-fair"

    def __init__(self, slot_mem_gb: float = 2.0):
        super().__init__()
        if slot_mem_gb <= 0:
            raise ValueError("slot size must be positive")
        self.slot_mem_gb = slot_mem_gb
        self.index = StageIndex()
        self._slots_free: Dict[int, int] = {}
        self._slots_by_task: Dict[int, int] = {}
        self._slots_used_by_job: Dict[int, int] = {}

    # -- wiring -----------------------------------------------------------------
    def bind(self, cluster, estimator=None, tracker=None) -> None:
        super().bind(cluster, estimator=estimator, tracker=tracker)
        self._slots_free = {
            m.machine_id: self.slots_of(m) for m in cluster.machines
        }

    def slots_of(self, machine) -> int:
        """Memory-defined slot count of one machine."""
        return max(1, int(machine.capacity.get("mem") // self.slot_mem_gb))

    def slots_per_machine(self) -> int:
        """Slot count of the reference machine (homogeneous clusters)."""
        return max(
            1, int(self.cluster.machine_capacity().get("mem") // self.slot_mem_gb)
        )

    def total_slots(self) -> int:
        return sum(self.slots_of(m) for m in self.cluster.machines)

    def task_slots(self, task: Task) -> int:
        """Slots a task occupies: enough to cover its estimated memory."""
        mem = self.estimated_demands(task).get("mem")
        return max(1, math.ceil(mem / self.slot_mem_gb))

    # -- callbacks -----------------------------------------------------------
    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self.index.add_job(job)
        self._slots_used_by_job.setdefault(job.job_id, 0)

    def on_stage_released(self, stage, time: float) -> None:
        self.index.add_stage(stage)

    def _release_slots(self, task: Task, machine_id) -> None:
        slots = self._slots_by_task.pop(task.task_id, 0)
        if machine_id is not None:
            self._slots_free[machine_id] += slots
        if task.job.job_id in self._slots_used_by_job:
            self._slots_used_by_job[task.job.job_id] -= slots

    def on_task_finished(self, task: Task, time: float) -> None:
        super().on_task_finished(task, time)
        self.index.forget(task)
        self._release_slots(task, task.machine_id)
        if task.job.is_finished:
            self._slots_used_by_job.pop(task.job.job_id, None)

    def on_task_failed(self, task: Task, time: float) -> None:
        machine_id = task.machine_id  # engine calls this before mark_failed
        super().on_task_failed(task, time)
        self._release_slots(task, machine_id)

    # -- ordering -----------------------------------------------------------------
    def _job_order(self) -> List[Job]:
        """Jobs sorted most-starved first (fewest slots vs. fair share)."""
        jobs = self.runnable_jobs()
        active = max(len(self.active_jobs), 1)
        fair = self.total_slots() / active

        def deficit(job: Job) -> float:
            return fair - self._slots_used_by_job.get(job.job_id, 0)

        return sorted(jobs, key=deficit, reverse=True)

    def _pick_task(
        self, job: Job, machine_id: int, time: float = 0.0
    ) -> Optional[Task]:
        return self.pick_task_with_locality(
            self.index, job, machine_id, time
        )

    # -- decisions ------------------------------------------------------------
    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        placements: List[Placement] = []
        for machine_id in self.iter_machine_ids(machine_ids):
            while self._slots_free[machine_id] > 0:
                placed = False
                for job in self._job_order():
                    task = self._pick_task(job, machine_id, time)
                    if task is None:
                        continue
                    slots = self.task_slots(task)
                    if slots > self._slots_free[machine_id]:
                        continue
                    booked = self.booked_demands(task, machine_id)
                    self.index.claim(task)
                    self._slots_free[machine_id] -= slots
                    self._slots_by_task[task.task_id] = slots
                    self._slots_used_by_job[job.job_id] = (
                        self._slots_used_by_job.get(job.job_id, 0) + slots
                    )
                    placements.append(Placement(task, machine_id, booked))
                    placed = True
                    break
                if not placed:
                    break
        return placements


# -- capacity.py at ba1445e -------------------------------------------------
class OracleCapacity(OracleSlotFair):
    """Queue-capacity scheduling over memory slots.

    Parameters
    ----------
    num_queues:
        Queues with equal capacity shares; jobs are assigned round-robin
        (a stand-in for per-user/organization queues).
    queue_shares:
        Optional explicit shares (normalized internally); overrides
        ``num_queues``.
    """

    name = "capacity"

    def __init__(
        self,
        slot_mem_gb: float = 2.0,
        num_queues: int = 4,
        queue_shares: Optional[Sequence[float]] = None,
    ):
        super().__init__(slot_mem_gb=slot_mem_gb)
        if queue_shares is not None:
            total = float(sum(queue_shares))
            if total <= 0 or any(s < 0 for s in queue_shares):
                raise ValueError("queue shares must be non-negative, sum > 0")
            self.queue_shares = [s / total for s in queue_shares]
        else:
            if num_queues <= 0:
                raise ValueError("need at least one queue")
            self.queue_shares = [1.0 / num_queues] * num_queues
        self._queue_of_job: Dict[int, int] = {}
        self._next_queue = 0
        self._slots_used_by_queue: List[int] = [0] * len(self.queue_shares)

    # -- queue assignment ---------------------------------------------------
    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self._queue_of_job[job.job_id] = self._next_queue
        self._next_queue = (self._next_queue + 1) % len(self.queue_shares)

    def on_task_finished(self, task, time: float) -> None:
        slots = self._slots_by_task.get(task.task_id, 0)
        queue = self._queue_of_job.get(task.job.job_id)
        if queue is not None:
            self._slots_used_by_queue[queue] -= slots
        super().on_task_finished(task, time)
        if task.job.is_finished:
            self._queue_of_job.pop(task.job.job_id, None)

    def on_task_failed(self, task, time: float) -> None:
        slots = self._slots_by_task.get(task.task_id, 0)
        queue = self._queue_of_job.get(task.job.job_id)
        if queue is not None:
            self._slots_used_by_queue[queue] -= slots
        super().on_task_failed(task, time)

    # -- ordering: most-underserved queue, FIFO within the queue ------------
    def _job_order(self) -> List[Job]:
        jobs = self.runnable_jobs()
        total = self.total_slots()

        def key(job: Job):
            queue = self._queue_of_job[job.job_id]
            guaranteed = self.queue_shares[queue] * total
            # deficit of the queue first (descending), then FIFO
            deficit = guaranteed - self._slots_used_by_queue[queue]
            return (-deficit, job.arrival_time, job.job_id)

        return sorted(jobs, key=key)

    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        placements = super().schedule(time, machine_ids)
        for placement in placements:
            queue = self._queue_of_job[placement.task.job.job_id]
            self._slots_used_by_queue[queue] += self._slots_by_task[
                placement.task.task_id
            ]
        return placements


# -- drf.py at ba1445e ------------------------------------------------------
class OracleDRF(Scheduler):
    """Progressive-filling DRF over the chosen dimensions."""

    name = "drf"

    def __init__(self, dims: Tuple[str, ...] = ("cpu", "mem")):
        super().__init__()
        if not dims:
            raise ValueError("DRF needs at least one dimension")
        self.dims = tuple(dims)
        self.index = StageIndex()

    # -- callbacks -------------------------------------------------------------
    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self.index.add_job(job)

    def on_stage_released(self, stage, time: float) -> None:
        self.index.add_stage(stage)

    def on_task_finished(self, task: Task, time: float) -> None:
        super().on_task_finished(task, time)
        self.index.forget(task)

    # -- DRF bookkeeping -----------------------------------------------------
    def _dominant_share(self, job: Job) -> float:
        alloc = self.job_alloc.get(job.job_id)
        if alloc is None:
            return 0.0
        capacity = self.cluster.total_capacity()
        share = 0.0
        for dim in self.dims:
            cap = capacity.get(dim)
            if cap > 0:
                share = max(share, alloc.get(dim) / cap)
        return share

    def _fits(self, demand: ResourceVector, free: ResourceVector) -> bool:
        return all(
            demand.get(d) <= free.get(d) + 1e-9 for d in self.dims
        )

    def _pick_task(
        self, job: Job, machine_id: int, time: float = 0.0
    ) -> Optional[Task]:
        return self.pick_task_with_locality(
            self.index, job, machine_id, time
        )

    # -- decisions ----------------------------------------------------------
    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        placements: List[Placement] = []
        #: shares drift within the round as we hand out resources
        shares: Dict[int, float] = {}
        for machine_id in self.iter_machine_ids(machine_ids):
            free = self.cluster.machine(machine_id).free_clamped()
            while True:
                jobs = self.runnable_jobs()
                if not jobs:
                    return placements
                jobs.sort(
                    key=lambda j: (
                        shares.get(j.job_id, self._dominant_share(j)),
                        j.job_id,
                    )
                )
                placed = False
                for job in jobs:
                    task = self._pick_task(job, machine_id, time)
                    if task is None:
                        continue
                    booked = self.booked_demands(task, machine_id)
                    if not self._fits(booked, free):
                        continue
                    self.index.claim(task)
                    placements.append(Placement(task, machine_id, booked))
                    free.sub_inplace(booked)
                    free = free.clamp_nonnegative()
                    shares[job.job_id] = self._round_share(job, booked, shares)
                    placed = True
                    break
                if not placed:
                    break
        return placements

    def _round_share(
        self,
        job: Job,
        booked: ResourceVector,
        shares: Dict[int, float],
    ) -> float:
        """Dominant share including placements made earlier in this round."""
        base = shares.get(job.job_id, self._dominant_share(job))
        capacity = self.cluster.total_capacity()
        bump = 0.0
        for dim in self.dims:
            cap = capacity.get(dim)
            if cap > 0:
                bump = max(bump, booked.get(dim) / cap)
        return base + bump


# -- fifo.py at ba1445e -----------------------------------------------------
#: dimensions a CPU+memory scheduler actually checks before placing
CHECKED_DIMS = ("cpu", "mem")


def fits_on_dims(
    demand: ResourceVector, free: ResourceVector, dims=CHECKED_DIMS
) -> bool:
    """Partial-dimension admission check (what non-packing schedulers do)."""
    return all(demand.get(d) <= free.get(d) + 1e-9 for d in dims)


class OracleFifo(Scheduler):
    """Jobs served strictly in arrival order.

    Checks only CPU and memory, so it over-allocates disk and network
    exactly like the slot-based schedulers the paper criticizes.
    """

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self.index = StageIndex()

    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self.index.add_job(job)

    def on_stage_released(self, stage, time: float) -> None:
        self.index.add_stage(stage)

    def on_task_finished(self, task: Task, time: float) -> None:
        super().on_task_finished(task, time)
        self.index.forget(task)

    def _pick_task(
        self, job: Job, machine_id: int, time: float = 0.0
    ) -> Optional[Task]:
        return self.pick_task_with_locality(
            self.index, job, machine_id, time
        )

    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        placements: List[Placement] = []
        jobs = sorted(
            self.runnable_jobs(), key=lambda j: (j.arrival_time, j.job_id)
        )
        if not jobs:
            return placements
        for machine_id in self.iter_machine_ids(machine_ids):
            free = self.cluster.machine(machine_id).free_clamped()
            while True:
                placed = False
                for job in jobs:
                    task = self._pick_task(job, machine_id, time)
                    if task is None:
                        continue
                    booked = self.booked_demands(task, machine_id)
                    if not fits_on_dims(booked, free):
                        continue
                    self.index.claim(task)
                    placements.append(Placement(task, machine_id, booked))
                    free.sub_inplace(booked)
                    free = free.clamp_nonnegative()
                    placed = True
                    break
                if not placed:
                    break
        return placements


ORACLES = {
    "slot-fair": OracleSlotFair,
    "capacity": OracleCapacity,
    "drf": OracleDRF,
    "fifo": OracleFifo,
}
