"""The job manager's *ask* (Section 4.4).

In YARN, each job manager (AM) periodically sends the cluster-wide
resource manager an **ask** describing its pending tasks.  Tetris
extends the ask to carry multi-resource demands and to flag the last
few tasks before a barrier — and keeps it *succinct*:

    "If the ask were to contain task demands for each possible
    placement, it would be too large.  Tetris keeps the asks succinct by
    observing that given the locations and sizes of a task's inputs, its
    resource demands can be inferred for any potential placement."

This module implements exactly that encoding: per *stage* (tasks of a
stage are statistically similar), one demand profile plus input sizes
and replica locations — from which the RM-side scheduler derives the
placement-adjusted demand vector for any machine
(`schedulers/base.adjust_for_placement`).  For the Table 7-adjacent
claim that this stays small, :func:`naive_ask_size_bytes` estimates the
rejected per-(task, machine) enumeration for comparison.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.estimation.estimator import DemandEstimator, OracleEstimator
from repro.workload.job import Job
from repro.workload.task import TaskState

__all__ = ["StageAsk", "Ask", "build_ask", "naive_ask_size_bytes"]


@dataclass(frozen=True)
class StageAsk:
    """One stage's entry in the ask.

    ``input_mb_by_machine`` summarizes where the stage's pending input
    bytes live — the information that lets the RM infer local-vs-remote
    demands per candidate machine without enumerating placements.
    ``barrier_hint`` marks stages whose remaining tasks gate a barrier
    (Section 3.5), so the RM can treat the stragglers preferentially.
    """

    stage: str
    pending_tasks: int
    demands: Dict[str, float]
    mean_input_mb: float
    input_mb_by_machine: Dict[int, float]
    barrier_hint: bool


@dataclass(frozen=True)
class Ask:
    """The full AM -> RM ask for one job."""

    job_id: int
    template: Optional[str]
    stages: Tuple[StageAsk, ...]

    def encoded_size_bytes(self) -> int:
        return len(self.to_json().encode())

    def to_json(self) -> str:
        return json.dumps(
            {
                "job_id": self.job_id,
                "template": self.template,
                "stages": [asdict(s) for s in self.stages],
            }
        )

    @property
    def pending_tasks(self) -> int:
        return sum(s.pending_tasks for s in self.stages)


def build_ask(
    job: Job,
    estimator: Optional[DemandEstimator] = None,
    barrier_knob: float = 0.9,
) -> Ask:
    """Build the succinct ask for a job's current pending work."""
    estimator = estimator if estimator is not None else OracleEstimator()
    stage_asks: List[StageAsk] = []
    for stage in job.dag:
        pending = [
            t for t in stage.tasks if t.state is TaskState.RUNNABLE
        ]
        if not pending:
            continue
        representative = pending[0]
        demands = estimator.estimate(representative).as_dict()
        by_machine: Dict[int, float] = {}
        total_mb = 0.0
        for task in pending:
            for inp in task.inputs:
                total_mb += inp.size_mb
                for machine_id in inp.locations:
                    by_machine[machine_id] = (
                        by_machine.get(machine_id, 0.0) + inp.size_mb
                    )
        barrier_hint = (
            stage.num_finished > 0
            and stage.finished_fraction >= barrier_knob
        )
        stage_asks.append(
            StageAsk(
                stage=stage.name,
                pending_tasks=len(pending),
                demands=demands,
                mean_input_mb=total_mb / len(pending),
                input_mb_by_machine=by_machine,
                barrier_hint=barrier_hint,
            )
        )
    return Ask(
        job_id=job.job_id, template=job.template, stages=tuple(stage_asks)
    )


#: bytes for one (task, machine) demand entry in the naive encoding:
#: 6 float64 demands + task id + machine id
_NAIVE_ENTRY_BYTES = 6 * 8 + 8 + 4


def naive_ask_size_bytes(job: Job, num_machines: int) -> int:
    """Size of the encoding the paper rejects: per-task, per-candidate-
    machine demand vectors."""
    pending = sum(
        1
        for stage in job.dag
        for t in stage.tasks
        if t.state is TaskState.RUNNABLE
    )
    return pending * num_machines * _NAIVE_ENTRY_BYTES
