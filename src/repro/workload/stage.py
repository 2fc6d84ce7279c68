"""Stages: groups of statistically-similar tasks separated by barriers.

The paper's jobs are DAGs of *stages* (map, reduce, joins, ...).  Tasks in a
stage run the same code on different partitions, so their resource profiles
are similar — the property the demand estimator exploits (Section 4.1).  A
stage releases its tasks when every parent stage has fully finished (strict
barrier), which is also what the barrier knob (Section 3.5) leans on.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

from repro.workload.task import Task, TaskState

__all__ = ["Stage"]

_stage_ids = itertools.count()


class Stage:
    """A set of tasks plus barrier bookkeeping.

    Parameters
    ----------
    name:
        Stage name, unique within the job (e.g. ``"map"``, ``"reduce"``).
    tasks:
        The stage's tasks.
    parents:
        Upstream stages; this stage's tasks stay ``BLOCKED`` until all
        parents finish.
    """

    def __init__(
        self,
        name: str,
        tasks: Sequence[Task],
        parents: Iterable["Stage"] = (),
    ):
        #: process-unique, never-reused identifier.  Schedulers key their
        #: per-stage state on this instead of ``id(stage)``: a CPython
        #: object id can be recycled after garbage collection, which
        #: aliases stages across back-to-back runs in long sweeps.
        self.stage_id: int = next(_stage_ids)
        self.name = name
        self.tasks: List[Task] = list(tasks)
        self.parents: List[Stage] = list(parents)
        self.children: List[Stage] = []
        self.job = None  # set by Job
        for parent in self.parents:
            parent.children.append(self)
        for i, task in enumerate(self.tasks):
            task.stage = self
            task.index = i
        # transition-maintained counters (see Task.mark_*); seeded by a
        # one-time scan in case tasks arrive already runnable/finished
        self._num_runnable = sum(
            1 for t in self.tasks if t.state is TaskState.RUNNABLE
        )
        self._num_finished = sum(
            1 for t in self.tasks if t.state is TaskState.FINISHED
        )
        self._num_blocked = sum(
            1 for t in self.tasks if t.state is TaskState.BLOCKED
        )
        if not self.parents:
            for task in self.tasks:
                task.mark_runnable()

    # -- progress -------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_finished(self) -> int:
        return self._num_finished

    @property
    def num_runnable(self) -> int:
        return self._num_runnable

    @property
    def num_blocked(self) -> int:
        return self._num_blocked

    @property
    def num_running(self) -> int:
        """Tasks that are neither blocked, runnable nor finished."""
        return (
            len(self.tasks)
            - self._num_blocked
            - self._num_runnable
            - self._num_finished
        )

    @property
    def finished_fraction(self) -> float:
        if not self.tasks:
            return 1.0
        return self.num_finished / len(self.tasks)

    def is_finished(self) -> bool:
        return self._num_finished == len(self.tasks)

    def is_released(self) -> bool:
        """True once the barrier in front of this stage has lifted."""
        return all(p.is_finished() for p in self.parents)

    def runnable_tasks(self) -> List[Task]:
        return [t for t in self.tasks if t.state is TaskState.RUNNABLE]

    def release_if_ready(self) -> bool:
        """Unblock tasks when all parents are done.  Returns True if released."""
        if not self.is_released():
            return False
        for task in self.tasks:
            task.mark_runnable()
        return True

    def __repr__(self) -> str:
        return (
            f"Stage({self.name!r}, tasks={self.num_tasks}, "
            f"finished={self.num_finished})"
        )
