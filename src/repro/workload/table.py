"""The structure-of-arrays task table.

Hot per-task scalars live here as parallel numpy arrays indexed by a
*stable integer slot*: demand vectors as an ``(N, dims)`` matrix, the
nominal duration, total work, lifecycle state, placement machine and
stage/job identity.  :class:`~repro.workload.task.Task` objects stay
the API surface — registering a task attaches it to a slot and every
state transition (``mark_runnable`` / ``mark_running`` /
``mark_finished`` / ``mark_failed``) writes through to the arrays, so
array-level consumers (kernels, metrics, analyses) never rescan the
object graph.

Slots are recycled: when the engine releases a finished task its slot
returns to the free list and the next registered task reuses it.  The
table therefore stays sized to the *live* task population, not the
total task count of the trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.resources import ResourceModel
from repro.workload.task import Task, TaskState

__all__ = ["TaskTable", "STATE_CODES"]

#: TaskState -> int8 code stored in the state array
STATE_CODES: Dict[TaskState, int] = {
    TaskState.BLOCKED: 0,
    TaskState.RUNNABLE: 1,
    TaskState.RUNNING: 2,
    TaskState.FINISHED: 3,
}

_INITIAL_CAPACITY = 64


class TaskTable:
    """Parallel arrays of per-task hot state with stable slot ids."""

    __slots__ = (
        "model",
        "demands",
        "duration",
        "work_cpu",
        "work_write",
        "state",
        "machine",
        "stage_id",
        "job_id",
        "_tasks",
        "_free",
        "_high",
    )

    def __init__(self, model: ResourceModel, capacity: int = _INITIAL_CAPACITY):
        capacity = max(int(capacity), 1)
        self.model = model
        self.demands = np.zeros((capacity, model.dims))
        self.duration = np.zeros(capacity)
        self.work_cpu = np.zeros(capacity)
        self.work_write = np.zeros(capacity)
        self.state = np.zeros(capacity, dtype=np.int8)
        self.machine = np.full(capacity, -1, dtype=np.int64)
        self.stage_id = np.full(capacity, -1, dtype=np.int64)
        self.job_id = np.full(capacity, -1, dtype=np.int64)
        self._tasks: List[Optional[Task]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._high = 0  # slots ever touched (dense prefix bound)

    # -- slot management ---------------------------------------------------
    def _grow(self) -> None:
        old = self.demands.shape[0]
        new = old * 2
        grown = np.zeros((new, self.model.dims))
        grown[:old] = self.demands
        self.demands = grown
        for name, fill in (
            ("duration", 0.0),
            ("work_cpu", 0.0),
            ("work_write", 0.0),
        ):
            arr = np.full(new, fill)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        state = np.zeros(new, dtype=np.int8)
        state[:old] = self.state
        self.state = state
        for name in ("machine", "stage_id", "job_id"):
            arr = np.full(new, -1, dtype=np.int64)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        self._tasks.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def register(self, task: Task) -> int:
        """Attach ``task`` to a slot (reusing freed slots) and copy its
        hot scalars into the arrays.  Idempotent for an attached task."""
        if task._table is self and task._slot is not None:
            return task._slot
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._high = max(self._high, slot + 1)
        self._tasks[slot] = task
        self.demands[slot] = task.demands.data
        self.duration[slot] = task.nominal_duration()
        self.work_cpu[slot] = task.work.cpu_core_seconds
        self.work_write[slot] = task.work.write_mb
        self.state[slot] = STATE_CODES[task.state]
        self.machine[slot] = -1 if task.machine_id is None else task.machine_id
        stage = task.stage
        self.stage_id[slot] = -1 if stage is None else stage.stage_id
        job = task.job
        self.job_id[slot] = -1 if job is None else job.job_id
        task._table = self
        task._slot = slot
        return slot

    def release(self, task: Task) -> None:
        """Detach ``task`` and return its slot to the free list."""
        slot = task._slot
        if task._table is not self or slot is None:
            return
        task._table = None
        task._slot = None
        self._tasks[slot] = None
        self.state[slot] = STATE_CODES[TaskState.FINISHED]
        self.machine[slot] = -1
        self.stage_id[slot] = -1
        self.job_id[slot] = -1
        self._free.append(slot)

    # -- write-through hooks (called from Task.mark_*) ---------------------
    def note_state(self, slot: int, state: TaskState) -> None:
        self.state[slot] = STATE_CODES[state]

    def note_machine(self, slot: int, machine_id: Optional[int]) -> None:
        self.machine[slot] = -1 if machine_id is None else machine_id

    # -- queries -----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.demands.shape[0]

    @property
    def num_live(self) -> int:
        return self.capacity - len(self._free)

    def task_at(self, slot: int) -> Optional[Task]:
        return self._tasks[slot]

    def __len__(self) -> int:
        return self.num_live

    def __repr__(self) -> str:
        return f"TaskTable(live={self.num_live}, capacity={self.capacity})"
