"""Jobs: DAGs of stages with arrival times and remaining-work accounting."""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional, Sequence

from repro.resources import ResourceVector
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

    def runnable_tasks(self) -> List[Task]:
        return [t for s in self.dag for t in s.runnable_tasks()]

    def has_runnable_tasks(self) -> bool:
        """O(1) via the transition-maintained runnable counter."""
        return self._num_runnable > 0

    def unfinished_tasks(self) -> List[Task]:
        return [t for s in self.dag for t in s.unfinished_tasks()]

    def running_tasks(self) -> List[Task]:
        return [
            t
            for s in self.dag
            for t in s.tasks
            if t.state is TaskState.RUNNING
        ]

    # -- scores ----------------------------------------------------------------
    def remaining_work_score(self, capacity: ResourceVector) -> float:
        """The paper's multi-resource SRTF score ``p`` (Section 3.3.1).

        Sum over remaining (unfinished) tasks of the task's total
        capacity-normalized demand multiplied by its estimated duration.
        Lower means less remaining work, so the job should be favored.
        """
        score = 0.0
        for stage in self.dag:
            for task in stage.tasks:
                if task.state is TaskState.FINISHED:
                    continue
                normalized = task.demands.normalized_by(capacity).total()
                score += normalized * task.nominal_duration()
        return score

    def barrier_tasks(self, barrier_knob: float) -> List[Task]:
        """Tasks eligible for barrier preference (Section 3.5).

        For each unfinished, released stage whose finished fraction has
        crossed ``barrier_knob``, the remaining tasks of that stage are
        returned.  Every stage is treated as preceding a barrier: either a
        downstream stage waits on it or the job's completion does.
        """
        if not 0.0 <= barrier_knob < 1.0:
            raise ValueError(f"barrier knob must be in [0, 1): {barrier_knob}")
        eligible: List[Task] = []
        for stage in self.dag:
            if stage.is_finished() or not stage.is_released():
                continue
            if stage.finished_fraction >= barrier_knob and stage.num_tasks > 0:
                eligible.extend(
                    t for t in stage.tasks if t.state is TaskState.RUNNABLE
                )
        return eligible

    def __repr__(self) -> str:
        return (
            f"Job(id={self.job_id}, name={self.name!r}, "
            f"stages={len(self.dag)}, tasks={self.num_tasks}, "
            f"state={self.state.value})"
        )
