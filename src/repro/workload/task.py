"""Tasks: the unit of scheduling.

A task carries two kinds of quantities, mirroring Table 4 of the paper:

- **peak demands** ``d`` (a :class:`~repro.resources.ResourceVector`): the
  rates/amounts the task can use at most — cores, peak memory, peak disk
  read/write bandwidth, peak network bandwidth in/out.
- **work** ``f`` (:class:`TaskWork`): the total amounts to be processed —
  CPU core-seconds, bytes to read (split per input), bytes to write.

The task's *duration* is not fixed: it follows eq. (5) of the paper — the
maximum over resource dimensions of work divided by the *achieved* rate,
where achieved rates depend on placement (local vs. remote input) and on
contention at the machines involved.  The fluid simulator
(:mod:`repro.sim.fluid`) integrates this.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.resources import ResourceVector, ordered_sum

__all__ = ["Task", "TaskInput", "TaskState", "TaskWork", "NEGLIGIBLE_WORK"]

#: work amounts below this (MB or core-seconds) are treated as zero:
#: sub-byte transfers complete instantly regardless of the allocated rate
NEGLIGIBLE_WORK = 1e-6

_task_ids = itertools.count()


class TaskState(enum.Enum):
    """Lifecycle of a task."""

    BLOCKED = "blocked"  # upstream stage has not released it yet
    RUNNABLE = "runnable"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(frozen=True)
class TaskInput:
    """One input partition of a task.

    ``size_mb`` megabytes live on the machines in ``locations`` (HDFS-style
    replicas for map inputs; the single producing machine for shuffle data).
    An empty ``locations`` means the data's placement is decided lazily by
    the block store when the producing task runs.
    """

    size_mb: float
    locations: Tuple[int, ...] = ()

    def is_local_to(self, machine_id: int) -> bool:
        return machine_id in self.locations


@dataclass
class TaskWork:
    """Total work of a task along each dimension (the ``f`` terms of Table 4).

    ``cpu_core_seconds`` is CPU work; reading work is carried by the task's
    inputs; ``write_mb`` is the output written to the local disk (the paper's
    simplification: output goes to local disk).
    """

    cpu_core_seconds: float = 0.0
    write_mb: float = 0.0


class Task:
    """A schedulable task.

    Parameters
    ----------
    demands:
        Peak resource demands (rates).  The network components of this
        vector only apply when inputs are read remotely; the scheduler
        adjusts demands to the candidate placement
        (:meth:`demands_on`).
    work:
        Total CPU and write work.
    inputs:
        Input partitions with sizes and replica locations.
    duration_hint:
        The task's nominal duration under peak rates with no contention.
        Used by demand estimators and the SRTF score; computed lazily from
        work if not given.
    """

    __slots__ = (
        "task_id",
        "job",
        "stage",
        "index",
        "demands",
        "work",
        "inputs",
        "state",
        "machine_id",
        "start_time",
        "finish_time",
        "duration_hint",
        "attempts",
        "_table",
        "_slot",
    )

    def __init__(
        self,
        demands: ResourceVector,
        work: TaskWork,
        inputs: Sequence[TaskInput] = (),
        duration_hint: Optional[float] = None,
        index: int = 0,
    ):
        self.task_id: int = next(_task_ids)
        self.job = None  # set by Job
        self.stage = None  # set by Stage
        self.index = index
        self.demands = demands
        self.work = work
        self.inputs: List[TaskInput] = list(inputs)
        self.state = TaskState.BLOCKED
        self.machine_id: Optional[int] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.duration_hint = duration_hint
        #: failed execution attempts so far (failure injection)
        self.attempts = 0
        #: structure-of-arrays attachment (set by TaskTable.register);
        #: state transitions write through to the table's parallel arrays
        self._table = None
        self._slot: Optional[int] = None

    # -- size helpers -------------------------------------------------------
    @property
    def input_mb(self) -> float:
        return ordered_sum(inp.size_mb for inp in self.inputs)

    def nominal_duration(self) -> float:
        """Duration at peak rates with all-local input and no contention.

        This is eq. (5) evaluated with every achieved rate equal to the
        peak demand — the fastest the task can possibly run.
        """
        if self.duration_hint is not None:
            return self.duration_hint
        terms = [0.0]
        cpu = self.demands.get("cpu")
        if self.work.cpu_core_seconds > NEGLIGIBLE_WORK and cpu > 0:
            terms.append(self.work.cpu_core_seconds / cpu)
        diskr = self.demands.get("diskr")
        if self.input_mb > NEGLIGIBLE_WORK and diskr > 0:
            terms.append(self.input_mb / diskr)
        diskw = self.demands.get("diskw")
        if self.work.write_mb > NEGLIGIBLE_WORK and diskw > 0:
            terms.append(self.work.write_mb / diskw)
        return max(terms)

    def remote_input_mb(self, machine_id: int) -> float:
        """Megabytes that must cross the network if placed on ``machine_id``."""
        return ordered_sum(
            inp.size_mb for inp in self.inputs if not inp.is_local_to(machine_id)
        )

    def demands_on(self, machine_id: int) -> ResourceVector:
        """Peak demands adjusted for a candidate placement (Section 3.2).

        If all input is local the network demand vanishes; if some input is
        remote the task needs ``netin`` at this machine.  ``netout`` at the
        *remote* machines is checked separately by the scheduler and is not
        part of the local demand vector.
        """
        remote = self.remote_input_mb(machine_id)
        local = self.input_mb - remote
        d = self.demands.copy()
        if remote <= 0:
            d.set("netin", 0.0)
        if local <= 0:
            d.set("diskr", 0.0)
        d.set("netout", 0.0)  # output stays on local disk in our model
        return d

    # -- state transitions ---------------------------------------------------
    # every transition funnels through these four methods (nothing else
    # assigns ``state``), which is what lets the stage keep O(1)
    # runnable/finished/blocked counters, and the job its runnable
    # counter, instead of rescanning their task lists
    def mark_runnable(self) -> None:
        if self.state is TaskState.BLOCKED:
            self.state = TaskState.RUNNABLE
            if self.stage is not None:
                self.stage._num_runnable += 1
                self.stage._num_blocked -= 1
            if self.job is not None:
                self.job._num_runnable += 1
            if self._table is not None:
                self._table.note_state(self._slot, self.state)

    def mark_running(self, machine_id: int, time: float) -> None:
        if self.state is not TaskState.RUNNABLE:
            raise RuntimeError(f"task {self.task_id} not runnable: {self.state}")
        self.state = TaskState.RUNNING
        self.machine_id = machine_id
        self.start_time = time
        if self.stage is not None:
            self.stage._num_runnable -= 1
        if self.job is not None:
            self.job._num_runnable -= 1
        if self._table is not None:
            self._table.note_state(self._slot, self.state)
            self._table.note_machine(self._slot, machine_id)

    def mark_finished(self, time: float) -> None:
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(f"task {self.task_id} not running: {self.state}")
        self.state = TaskState.FINISHED
        self.finish_time = time
        if self.stage is not None:
            self.stage._num_finished += 1
        if self._table is not None:
            self._table.note_state(self._slot, self.state)

    def mark_failed(self, time: float) -> None:
        """The attempt died; the task goes back to the runnable pool.

        Only the successful attempt's timestamps are kept, so ``duration``
        reflects the final execution (re-run work is visible through
        ``attempts`` and in job completion times).
        """
        if self.state is not TaskState.RUNNING:
            raise RuntimeError(f"task {self.task_id} not running: {self.state}")
        self.state = TaskState.RUNNABLE
        self.machine_id = None
        self.start_time = None
        self.attempts += 1
        if self.stage is not None:
            self.stage._num_runnable += 1
        if self.job is not None:
            self.job._num_runnable += 1
        if self._table is not None:
            self._table.note_state(self._slot, self.state)
            self._table.note_machine(self._slot, None)

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:
        job_id = getattr(self.job, "job_id", None)
        stage = getattr(self.stage, "name", None)
        return (
            f"Task(id={self.task_id}, job={job_id}, stage={stage}, "
            f"state={self.state.value})"
        )
