"""Trace records: a serializable description of a workload.

A trace is a list of :class:`TraceJob` records — the same information the
paper's simulator replays from the Facebook logs: arrival times, per-stage
task counts, per-task resource requirements, input/output sizes, and the
stage DAG.  Traces round-trip through JSON and are *materialized* against
a cluster (placing input blocks in its block store) to obtain runnable
:class:`~repro.workload.job.Job` objects.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Union

import numpy as np

from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
from repro.workload.stage import Stage
from repro.workload.task import Task, TaskInput, TaskWork

__all__ = [
    "TraceStage",
    "TraceJob",
    "save_trace",
    "load_trace",
    "materialize_trace",
    "validate_trace",
]


def validate_trace(trace: Sequence["TraceJob"]) -> List[str]:
    """Check a (possibly hand-written) trace for structural problems.

    Returns a list of human-readable issues; empty means the trace is
    well-formed.  Checked: unique job names, stage-name uniqueness
    within a job, parents referring to earlier stages, non-negative
    arrival times, and sane per-stage numbers.
    """
    issues: List[str] = []
    seen_jobs = set()
    for job in trace:
        where = f"job {job.name!r}"
        if job.name in seen_jobs:
            issues.append(f"duplicate job name {job.name!r}")
        seen_jobs.add(job.name)
        if job.arrival_time < 0:
            issues.append(f"{where}: negative arrival time")
        stage_names = set()
        for stage in job.stages:
            swhere = f"{where}, stage {stage.name!r}"
            if stage.name in stage_names:
                issues.append(f"{swhere}: duplicate stage name")
            for parent in stage.parents:
                if parent not in stage_names:
                    issues.append(
                        f"{swhere}: parent {parent!r} is not an earlier "
                        f"stage of the job"
                    )
            stage_names.add(stage.name)
            for field_name in ("cpu", "mem", "diskr", "diskw", "netin",
                               "netout", "cpu_work", "input_mb_per_task",
                               "write_mb_per_task"):
                if getattr(stage, field_name) < 0:
                    issues.append(f"{swhere}: negative {field_name}")
            if stage.input_kind == "shuffle" and not stage.parents:
                issues.append(
                    f"{swhere}: shuffle input but no parent stages"
                )
            if stage.shuffle_fanin < 1:
                issues.append(f"{swhere}: shuffle_fanin must be >= 1")
    return issues


@dataclass
class TraceStage:
    """One stage of a trace job.

    ``input_kind`` is ``"blocks"`` for stages reading stored data (map)
    and ``"shuffle"`` for stages reading upstream outputs (reduce).
    Demands are per-task peaks; ``demand_jitter`` adds lognormal
    within-stage variation at materialization time (tasks in a stage are
    statistically similar but not identical, Section 4.1).
    """

    name: str
    num_tasks: int
    cpu: float = 1.0
    mem: float = 1.0
    diskr: float = 0.0
    diskw: float = 0.0
    netin: float = 0.0
    netout: float = 0.0
    cpu_work: float = 0.0
    input_mb_per_task: float = 0.0
    write_mb_per_task: float = 0.0
    parents: List[str] = field(default_factory=list)
    input_kind: str = "blocks"
    shuffle_fanin: int = 3
    demand_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.num_tasks < 0:
            raise ValueError("num_tasks must be non-negative")
        if self.input_kind not in ("blocks", "shuffle"):
            raise ValueError(f"unknown input_kind {self.input_kind!r}")


@dataclass
class TraceJob:
    """One job of a trace."""

    name: str
    arrival_time: float
    stages: List[TraceStage]
    template: Optional[str] = None


def save_trace(trace: Sequence[TraceJob], path: Union[str, Path]) -> None:
    """Write a trace as JSON."""
    payload = [asdict(job) for job in trace]
    Path(path).write_text(json.dumps(payload, indent=1))


def load_trace(path: Union[str, Path]) -> List[TraceJob]:
    """Read a trace written by :func:`save_trace`.

    Raises ``ValueError`` listing every issue :func:`validate_trace`
    finds, so a malformed trace never reaches a simulation.
    """
    payload = json.loads(Path(path).read_text())
    out = []
    for job_dict in payload:
        stages = [TraceStage(**s) for s in job_dict.pop("stages")]
        out.append(TraceJob(stages=stages, **job_dict))
    issues = validate_trace(out)
    if issues:
        raise ValueError(
            f"invalid trace {str(path)!r} ({len(issues)} issue(s)):\n  "
            + "\n  ".join(issues)
        )
    return out


def _jitter(rng: np.random.Generator, sigma: float) -> float:
    if sigma <= 0:
        return 1.0
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


def materialize_trace(
    trace: Sequence[TraceJob],
    cluster: "Cluster",
    seed: int = 0,
) -> List[Job]:
    """Build runnable jobs from trace records.

    Block-reading stages get their inputs placed in the cluster's block
    store (rack-aware replicas); shuffle stages get placeholder inputs
    whose source machines are pinned when the upstream barrier lifts.
    """
    rng = np.random.default_rng(seed)
    model = cluster.model
    #: no single task may demand more than a machine can give; clamping at
    #: 95% of capacity keeps every generated task schedulable
    demand_cap = cluster.machine_capacity() * 0.95
    jobs: List[Job] = []
    for trace_job in trace:
        stages_by_name: Dict[str, Stage] = {}
        stage_objects: List[Stage] = []
        for ts in trace_job.stages:
            tasks = []
            for _ in range(ts.num_tasks):
                # independent compute-side and data-side jitters: tasks of
                # a stage vary both in computation and in partition size,
                # and the two vary mostly independently (keeping them
                # separate also avoids injecting artificial cross-resource
                # correlation, Table 2)
                compute_factor = _jitter(rng, ts.demand_jitter)
                data_factor = _jitter(rng, ts.demand_jitter)
                demands = model.vector(
                    cpu=ts.cpu * compute_factor,
                    mem=ts.mem * compute_factor,
                    diskr=ts.diskr * data_factor,
                    diskw=ts.diskw * data_factor,
                    netin=ts.netin * data_factor,
                    netout=ts.netout * data_factor,
                ).elementwise_min(demand_cap)
                work = TaskWork(
                    cpu_core_seconds=ts.cpu_work * compute_factor,
                    write_mb=ts.write_mb_per_task * data_factor,
                )
                inputs = []
                if ts.input_mb_per_task > 0:
                    if ts.input_kind == "blocks":
                        block = cluster.blockstore.add_block(
                            ts.input_mb_per_task * data_factor
                        )
                        inputs.append(
                            TaskInput(block.size_mb, block.replicas)
                        )
                    else:
                        fanin = max(1, ts.shuffle_fanin)
                        per_source = (
                            ts.input_mb_per_task * data_factor / fanin
                        )
                        inputs.extend(
                            TaskInput(per_source, ()) for _ in range(fanin)
                        )
                tasks.append(Task(demands, work, inputs))
            parents = [stages_by_name[p] for p in ts.parents]
            stage = Stage(ts.name, tasks, parents=parents)
            stages_by_name[ts.name] = stage
            stage_objects.append(stage)
        jobs.append(
            Job(
                stage_objects,
                arrival_time=trace_job.arrival_time,
                name=trace_job.name,
                template=trace_job.template,
            )
        )
    return jobs
