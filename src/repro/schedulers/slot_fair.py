"""Slot-based fair scheduler (Hadoop Fair Scheduler).

Machines are carved into slots defined on memory only (the Facebook
cluster used 2 GB slots, Section 5.1).  The next free slot goes to the job
furthest below its fair share of slots.  Nothing else is checked: CPU,
disk and network are routinely over-allocated, and statically-sized slots
fragment memory — the two pathologies of Section 2.1.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.schedulers.fair_share import FairShareScheduler
from repro.workload.job import Job
from repro.workload.task import Task

__all__ = ["SlotFairScheduler"]


class SlotFairScheduler(FairShareScheduler):
    """Fair sharing of memory-defined slots."""

    name = "slot-fair"

    def __init__(self, slot_mem_gb: float = 2.0):
        super().__init__()
        if slot_mem_gb <= 0:
            raise ValueError("slot size must be positive")
        self.slot_mem_gb = slot_mem_gb
        self._slots_free: Dict[int, int] = {}
        self._slots_by_task: Dict[int, int] = {}
        self._slots_used_by_job: Dict[int, int] = {}
        #: position in arrival order per active job (ties in the order)
        self._arrival_pos: Dict[int, int] = {}
        self._arrivals = 0

    # -- wiring -----------------------------------------------------------------
    def bind(self, cluster, estimator=None, tracker=None) -> None:
        super().bind(cluster, estimator=estimator, tracker=tracker)
        #: per-machine slot counts and their sum, fixed for the cluster
        self._slot_counts, self._total_slots = cluster.memory_slots(
            self.slot_mem_gb
        )
        self._slots_free = dict(enumerate(self._slot_counts))

    def slots_of(self, machine) -> int:
        """Memory-defined slot count of one machine."""
        return self._slot_counts[machine.machine_id]

    def slots_per_machine(self) -> int:
        """Slot count of the reference machine (homogeneous clusters)."""
        return self._slot_counts[0]

    def total_slots(self) -> int:
        return self._total_slots

    def task_slots(self, task: Task) -> int:
        """Slots a task occupies: enough to cover its estimated memory."""
        mem = self.estimated_demands(task).get("mem")
        return max(1, math.ceil(mem / self.slot_mem_gb))

    # -- callbacks -----------------------------------------------------------
    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self._slots_used_by_job.setdefault(job.job_id, 0)
        self._arrival_pos[job.job_id] = self._arrivals
        self._arrivals += 1

    def _release_slots(self, task: Task, machine_id) -> None:
        slots = self._slots_by_task.pop(task.task_id, 0)
        if machine_id is not None:
            self._slots_free[machine_id] += slots
        if task.job.job_id in self._slots_used_by_job:
            self._slots_used_by_job[task.job.job_id] -= slots

    def on_task_finished(self, task: Task, time: float) -> None:
        super().on_task_finished(task, time)
        self._release_slots(task, task.machine_id)
        if task.job.is_finished:
            self._slots_used_by_job.pop(task.job.job_id, None)
            self._arrival_pos.pop(task.job.job_id, None)

    def on_task_failed(self, task: Task, time: float) -> None:
        machine_id = task.machine_id  # engine calls this before mark_failed
        super().on_task_failed(task, time)
        self._release_slots(task, machine_id)

    # -- plug-ins: fewest slots first, the next free slot if it is enough -----
    def _key(self, job: Job) -> tuple:
        return (
            self._slots_used_by_job[job.job_id],
            self._arrival_pos[job.job_id],
        )

    def _has_room(self, machine_id: int) -> bool:
        return self._slots_free[machine_id] > 0

    def _admit(self, job: Job, task: Task, machine_id: int):
        slots = self.task_slots(task)
        if slots > self._slots_free[machine_id]:
            return None
        self._slots_free[machine_id] -= slots
        self._slots_by_task[task.task_id] = slots
        self._slots_used_by_job[job.job_id] += slots
        return self.booked_demands(task, machine_id)
