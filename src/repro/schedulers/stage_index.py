"""An index of runnable tasks, grouped by stage, with locality lookup.

Schedulers pick tasks stage-first: tasks within a stage are statistically
similar (Section 4.1), so one representative score per stage per machine
is enough, and the index answers "give me a runnable task of this stage,
preferably one with input local to machine m" in O(1) amortized.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.workload.job import Job
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskState

__all__ = ["StageIndex"]


class _StageEntry:
    __slots__ = ("stage", "queue", "local", "moved_fronts")

    def __init__(self, stage: Stage):
        self.stage = stage
        self.queue: Deque[Task] = deque(stage.runnable_tasks())
        self.local: Dict[int, Deque[Task]] = {}
        for task in self.queue:
            for inp in task.inputs:
                for machine_id in inp.locations:
                    self.local.setdefault(machine_id, deque()).append(task)
        #: machines whose pool front may have moved since
        #: :meth:`StageIndex.take_moved_fronts` last drained them; None =
        #: nobody follows this stage yet (changes record nothing)
        self.moved_fronts: Optional[Set[int]] = None


class StageIndex:
    """Tracks runnable-and-unclaimed tasks per stage."""

    def __init__(self) -> None:
        self._entries: Dict[int, _StageEntry] = {}
        self._claimed: Set[int] = set()

    # -- maintenance ----------------------------------------------------------
    def add_stage(self, stage: Stage) -> bool:
        """Index ``stage``; False when it already was."""
        key = stage.stage_id
        if key in self._entries:
            return False
        self._entries[key] = _StageEntry(stage)
        return True

    def add_job(self, job: Job) -> None:
        """Index every already-released stage of a newly-arrived job."""
        for stage in job.dag:
            if stage.is_released():
                self.add_stage(stage)

    def claim(self, task: Task) -> None:
        """Mark a task as tentatively placed during this scheduling round."""
        self._claimed.add(task.task_id)
        self._note_moved_fronts(task)

    def forget(self, task: Task) -> None:
        """Drop bookkeeping for a finished task — and, once its stage
        has drained, the stage's entry (a finished stage can never hold
        a candidate again)."""
        self._claimed.discard(task.task_id)
        if task.stage.is_finished():
            self._entries.pop(task.stage.stage_id, None)
        elif task.state is TaskState.RUNNABLE:
            # un-claiming a task that never started revives it
            self._note_moved_fronts(task)

    def reset_claims(self) -> None:
        """Release every tentative claim (benchmark/repro harness hook)."""
        self._claimed.clear()
        for entry in self._entries.values():
            entry.moved_fronts = None

    def _note_moved_fronts(self, task: Task) -> None:
        """``task``'s eligibility changed: the front of its stage's
        locality pool can have moved on the machines holding its input,
        and nowhere else."""
        entry = self._entries.get(task.stage.stage_id)
        if entry is not None and entry.moved_fronts is not None:
            for inp in task.inputs:
                entry.moved_fronts.update(inp.locations)

    def take_moved_fronts(self, stage: Stage, every_pool: bool = False):
        """Machines on which :meth:`local_candidate` for ``stage`` may
        answer differently than at the previous call — every machine
        with a pool the first time, after :meth:`reset_claims` and on
        request.  Eligibility moves only in :meth:`claim`,
        :meth:`requeue`, :meth:`forget` and :meth:`reset_claims`, and
        each records here, so no caller can move a front behind the
        back of the one consumer (``CandidateIndex.stage_rows``).
        """
        entry = self._entries.get(stage.stage_id)
        if entry is None:
            return ()
        moved = entry.moved_fronts
        if every_pool or moved is None:
            entry.moved_fronts = set()
            return entry.local.keys()
        if moved:
            entry.moved_fronts = set()
        return moved

    def requeue(self, task: Task) -> None:
        """Put a failed task back at the *back* of its stage's pools.

        The pools prune lazily (ineligible fronts are popped on lookup),
        so at requeue time the task may or may not still sit at its old
        position, depending on how far lookups happened to walk while it
        ran.  Dropping any stale occurrence before appending makes the
        task's comeback position canonical — candidate order after a
        failure is then independent of lookup (visit) history, which is
        what lets the round's placeability plane drop fruitless visits
        without perturbing placements.  Failures are rare, so the
        O(queue) removal is off any hot path.
        """
        self._claimed.discard(task.task_id)
        entry = self._entries.get(task.stage.stage_id)
        if entry is None:
            return
        try:
            entry.queue.remove(task)
        except ValueError:
            pass
        entry.queue.append(task)
        for inp in task.inputs:
            for machine_id in inp.locations:
                queue = entry.local.setdefault(machine_id, deque())
                try:
                    queue.remove(task)
                except ValueError:
                    pass
                queue.append(task)
        self._note_moved_fronts(task)

    def _eligible(self, task: Task) -> bool:
        return (
            task.state is TaskState.RUNNABLE
            and task.task_id not in self._claimed
        )

    # -- candidate lookup ------------------------------------------------------
    def local_candidate(
        self, stage: Stage, machine_id: int
    ) -> Optional[Task]:
        """A runnable task of ``stage`` with a replica on ``machine_id``."""
        entry = self._entries.get(stage.stage_id)
        if entry is None:
            return None
        queue = entry.local.get(machine_id)
        if not queue:
            return None
        while queue:
            task = queue[0]
            if self._eligible(task):
                return task
            queue.popleft()
        return None

    def any_candidate(self, stage: Stage) -> Optional[Task]:
        """Any runnable task of ``stage`` (front of the queue)."""
        entry = self._entries.get(stage.stage_id)
        if entry is None:
            return None
        queue = entry.queue
        while queue:
            task = queue[0]
            if self._eligible(task):
                return task
            queue.popleft()
        return None

    def representatives(self, stage: Stage, machine_id: int) -> tuple:
        """The stage's candidate representatives for one machine, in the
        canonical scoring order: the locality-preferred task first, then
        the stage-queue front when distinct.  The scalar fill loop
        gathers in this order and the vectorized one reads the same two
        tasks as rows ``2 * si`` and ``2 * si + 1`` of its stage (see
        ``repro.schedulers.candidates``), which is what keeps their
        decision streams bit-identical.
        """
        local = self.local_candidate(stage, machine_id)
        other = self.any_candidate(stage)
        if local is None:
            return () if other is None else (other,)
        if other is None or other is local:
            return (local,)
        return (local, other)

    def has_candidates(self, stage: Stage) -> bool:
        return self.any_candidate(stage) is not None

    def indexed_stages(self, job: Job) -> List[Stage]:
        """This job's indexed stages that still hold eligible tasks."""
        out = []
        for stage in job.dag:
            if stage.stage_id in self._entries and self.has_candidates(stage):
                out.append(stage)
        return out
