"""Jobs: DAGs of stages with arrival times and completion bookkeeping."""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional, Sequence

from repro.workload.dag import StageDag
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskState

__all__ = ["Job", "JobState"]

_job_ids = itertools.count()


class JobState(enum.Enum):
    WAITING = "waiting"  # not yet arrived
    ACTIVE = "active"
    FINISHED = "finished"


class Job:
    """One job: a DAG of stages submitted at ``arrival_time``.

    ``template`` names the recurring job this is an instance of (hourly /
    daily reruns on new data, Section 4.1); the demand estimator keys its
    history on it.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        arrival_time: float = 0.0,
        name: Optional[str] = None,
        template: Optional[str] = None,
    ):
        self.job_id: int = next(_job_ids)
        self.name = name if name is not None else f"job-{self.job_id}"
        self.template = template
        self.arrival_time = arrival_time
        self.dag = StageDag(stages)
        self.state = JobState.WAITING
        self.finish_time: Optional[float] = None
        for stage in self.dag:
            stage.job = self
            for task in stage.tasks:
                task.job = self
        #: runnable tasks, kept by ``Task.mark_*`` from here on
        self._num_runnable = sum(s.num_runnable for s in self.dag)

    # -- lifecycle ---------------------------------------------------------
    def arrive(self) -> None:
        if self.state is JobState.WAITING:
            self.state = JobState.ACTIVE

    def note_task_finished(self) -> List[Stage]:
        """Propagate barriers; returns newly released stages."""
        released = self.dag.release_ready_stages()
        if self.dag.is_finished():
            self.state = JobState.FINISHED
        return released

    @property
    def is_finished(self) -> bool:
        return self.state is JobState.FINISHED

    def mark_finished(self, time: float) -> None:
        self.finish_time = time

    @property
    def completion_time(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    # -- task queries --------------------------------------------------------
    def all_tasks(self) -> List[Task]:
        return [t for s in self.dag for t in s.tasks]

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks for s in self.dag)

    def has_runnable_tasks(self) -> bool:
        """O(1) via the transition-maintained runnable counter."""
        return self._num_runnable > 0

    def running_tasks(self) -> List[Task]:
        return [
            t
            for s in self.dag
            for t in s.tasks
            if t.state is TaskState.RUNNING
        ]

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, name={self.name!r}, "
            f"stages={len(self.dag)}, tasks={self.num_tasks}, "
            f"state={self.state.value})"
        )
