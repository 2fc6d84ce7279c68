"""Capacity scheduler (Hadoop/Yahoo!): queues with capacity shares.

Jobs are assigned to queues; each queue is guaranteed a share of the
cluster's memory-defined slots.  The next free slot goes to the
most-underserved queue, and *within* a queue jobs are served FIFO.  Like
the Fair scheduler, only memory slots are checked — CPU, disk and network
are over-allocated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.resources import ordered_sum
from repro.schedulers.base import Placement
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.workload.job import Job

__all__ = ["CapacityScheduler"]


class CapacityScheduler(SlotFairScheduler):
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
            total = ordered_sum(queue_shares)
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

    # -- order: most-underserved queue, FIFO within the queue -----------------
    def _key(self, job: Job) -> tuple:
        queue = self._queue_of_job[job.job_id]
        guaranteed = self.queue_shares[queue] * self._total_slots
        # deficit of the queue first (descending), then FIFO
        deficit = guaranteed - self._slots_used_by_queue[queue]
        return (-deficit, job.arrival_time, job.job_id)

    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        placements = super().schedule(time, machine_ids)
        # queue usage advances only here, after the round: deficits (and
        # so the order of queues) are frozen while a round hands out slots
        for placement in placements:
            queue = self._queue_of_job[placement.task.job.job_id]
            self._slots_used_by_queue[queue] += self._slots_by_task[
                placement.task.task_id
            ]
        return placements
