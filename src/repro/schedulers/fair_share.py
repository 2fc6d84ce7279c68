"""The one loop every fair-share baseline runs (Section 3.4).

``for machine -> while room -> for job in order -> offer -> admit ->
claim``: offer the next free resource to the job furthest below its
share, and start over from the top after every placement.  FIFO,
slot-fair, capacity and DRF differ in two plug-ins only:

- :meth:`FairShareScheduler._key` — the job's place in the order.  Its
  last element must be unique per job;
- :meth:`FairShareScheduler._admit` — does the task fit in what is left
  of the machine, and if so deduct it.  The default is a row compare
  over ``dims`` (CPU and memory); the slot schedulers count memory slots.

The order is sorted once per round and repaired by re-inserting only the
job just served (nobody else's key moved); a job drops out when its last
unclaimed candidate is taken, and an empty order ends the round.  Which
jobs have unclaimed candidates is counted from the callbacks, not found
by walking DAGs.  What must *not* be saved is an offer to a job that has
a candidate: under delay scheduling a declined offer spends the stage's
patience (``_stage_skips``) and emits ``locality_defer``, so the
``(job, machine)`` offer sequence — re-offers after each placement
included — is replayed exactly.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.resources import ResourceVector
from repro.schedulers.base import Placement, Scheduler
from repro.schedulers.stage_index import StageIndex
from repro.workload.job import Job
from repro.workload.task import Task

__all__ = ["FairShareScheduler"]


class FairShareScheduler(Scheduler):
    """Skeleton of the baselines; subclasses supply ``_key``."""

    #: dimensions the row admission checks before placing
    dims: Tuple[str, ...] = ("cpu", "mem")

    def __init__(self) -> None:
        super().__init__()
        self.index = StageIndex()
        #: unclaimed runnable tasks per active job
        self._open: Dict[int, int] = {}
        #: what this round has left of each machine it looked at, on dims
        self._rows: Dict[int, np.ndarray] = {}
        #: work counter: orders sorted so far (at most one per round)
        self.order_builds = 0

    def bind(self, cluster, estimator=None, tracker=None) -> None:
        super().bind(cluster, estimator=estimator, tracker=tracker)
        index = cluster.model.index
        self._dim_idx = np.array([index[d] for d in self.dims], dtype=np.intp)

    # -- callbacks -----------------------------------------------------------
    def on_job_arrival(self, job: Job, time: float) -> None:
        super().on_job_arrival(job, time)
        self._open[job.job_id] = 0
        for stage in job.dag:
            if stage.is_released():
                self._index_stage(stage)

    def on_stage_released(self, stage, time: float) -> None:
        self._index_stage(stage)

    def _index_stage(self, stage) -> None:
        if self.index.add_stage(stage):
            self._open[stage.job.job_id] += stage.num_runnable

    def on_task_finished(self, task: Task, time: float) -> None:
        super().on_task_finished(task, time)
        self.index.forget(task)
        if task.job.is_finished:
            self._open.pop(task.job.job_id, None)

    def on_task_failed(self, task: Task, time: float) -> None:
        super().on_task_failed(task, time)  # requeues: a candidate again
        self._open[task.job.job_id] += 1

    # -- plug-ins --------------------------------------------------------------
    def _key(self, job: Job) -> tuple:
        """Sort key of ``job`` in the order; smallest is served first."""
        raise NotImplementedError

    def _has_room(self, machine_id: int) -> bool:
        return True

    def _admit(
        self, job: Job, task: Task, machine_id: int
    ) -> Optional[ResourceVector]:
        """Book ``task`` against what the round has left of the machine
        on ``dims``; None when it does not fit.  The rows start as the
        machine's clamped free vector, copied on first use in a round.
        """
        booked = self.booked_demands(task, machine_id)
        row = self._rows.get(machine_id)
        if row is None:
            free = self.cluster.state.free_clamped_matrix()
            row = self._rows[machine_id] = free[machine_id, self._dim_idx]
        need = booked.data[self._dim_idx]
        if (need > row + 1e-9).any():
            return None
        row -= need
        np.maximum(row, 0.0, out=row)
        return booked

    # -- decisions ------------------------------------------------------------
    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        placements: List[Placement] = []
        order = sorted(
            (self._key(job), job)
            for job in self.active_jobs
            if self._open[job.job_id] > 0
        )
        if not order:
            return placements
        self.order_builds += 1
        self._rows.clear()
        for machine_id in self.iter_machine_ids(machine_ids):
            while order and self._has_room(machine_id):
                for pos, (_, job) in enumerate(order):
                    task = self.pick_task_with_locality(
                        self.index, job, machine_id, time
                    )
                    if task is None:
                        continue
                    booked = self._admit(job, task, machine_id)
                    if booked is None:
                        continue
                    self.index.claim(task)
                    placements.append(Placement(task, machine_id, booked))
                    # only the served job's key moved: re-insert it alone
                    del order[pos]
                    self._open[job.job_id] -= 1
                    if self._open[job.job_id] > 0:
                        insort(order, (self._key(job), job))
                    break
                else:
                    break
            if not order:
                break
        return placements
