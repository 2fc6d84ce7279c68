"""Metrics collection during a simulation run.

Collects:

- per-job completion times (for average JCT and its distribution);
- makespan (finish time of the last job);
- timeline samples of running-task count, per-resource *demand*
  utilization (which exceeds 100% under over-allocation — Figure 5),
  and achieved throughput;
- per-job allocation integrals for the relative-integral-unfairness
  metric of Section 5.3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.sim.fluid import FlowTable
    from repro.workload.job import Job

__all__ = ["MetricsCollector", "TimelinePoint", "JobRecord"]


@dataclass(frozen=True)
class TimelinePoint:
    """One utilization sample."""

    time: float
    running_tasks: int
    demand_utilization: Dict[str, float]
    throughput_utilization: Dict[str, float]


@dataclass
class JobRecord:
    """Completion record of one job."""

    job_id: int
    name: str
    template: Optional[str]
    num_tasks: int
    arrival_time: float
    finish_time: float

    @property
    def completion_time(self) -> float:
        return self.finish_time - self.arrival_time


class MetricsCollector:
    """Accumulates metrics for one simulation run."""

    def __init__(
        self,
        sample_period: float = 10.0,
        track_fairness: bool = False,
        track_machine_usage: bool = False,
    ):
        self.sample_period = sample_period
        self.track_fairness = track_fairness
        self.track_machine_usage = track_machine_usage
        #: resource -> list of per-machine utilization arrays, one per sample
        self.machine_samples: Dict[str, List[np.ndarray]] = {}
        self.jobs: Dict[int, JobRecord] = {}
        self.timeline: List[TimelinePoint] = []
        self._next_sample = 0.0
        #: per-job integral of (share - fair)/fair dt
        self.unfairness_integral: Dict[int, float] = {}
        #: per-job integral of share dt (average allocation)
        self.share_integral: Dict[int, float] = {}
        self.first_arrival: Optional[float] = None
        self.last_finish: float = 0.0
        self.task_durations: List[float] = []
        #: failed (retried) task attempts seen by the engine
        self.task_failures: int = 0

    # -- job lifecycle -----------------------------------------------------
    def job_arrived(self, job: "Job", time: float) -> None:
        if self.first_arrival is None or time < self.first_arrival:
            self.first_arrival = time

    def job_finished(self, job: "Job", time: float) -> None:
        self.jobs[job.job_id] = JobRecord(
            job_id=job.job_id,
            name=job.name,
            template=job.template,
            num_tasks=job.num_tasks,
            arrival_time=job.arrival_time,
            finish_time=time,
        )
        self.last_finish = max(self.last_finish, time)

    def task_finished(self, duration: float) -> None:
        self.task_durations.append(duration)

    def task_failed(self) -> None:
        self.task_failures += 1

    # -- sampling -----------------------------------------------------------
    def maybe_sample(
        self, time: float, cluster: "Cluster", flows: "FlowTable"
    ) -> None:
        if time + 1e-12 < self._next_sample:
            return
        self._next_sample = time + self.sample_period
        self.sample(time, cluster, flows)

    def sample(
        self, time: float, cluster: "Cluster", flows: "FlowTable"
    ) -> None:
        model = cluster.model
        total_cap = cluster.total_capacity()
        total_alloc = cluster.total_allocated()
        demand_util = {}
        for name in model.rigid_names():
            cap = total_cap.get(name)
            demand_util[name] = total_alloc.get(name) / cap if cap else 0.0
        fluid_names = flows.fluid_dim_names()
        demand = flows.slot_demand().sum(axis=0)
        throughput = flows.slot_throughput().sum(axis=0)
        throughput_util = dict(demand_util)
        for k, name in enumerate(fluid_names):
            cap = total_cap.get(name)
            demand_util[name] = demand[k] / cap if cap else 0.0
            throughput_util[name] = throughput[k] / cap if cap else 0.0
        self.timeline.append(
            TimelinePoint(
                time=time,
                running_tasks=cluster.total_running_tasks(),
                demand_utilization=demand_util,
                throughput_utilization=throughput_util,
            )
        )
        if self.track_machine_usage:
            self._sample_machines(cluster, flows)

    def _sample_machines(
        self, cluster: "Cluster", flows: "FlowTable"
    ) -> None:
        """Per-machine demand utilization, for Table 6-style statistics."""
        model = cluster.model
        per_machine_demand = flows.slot_demand()
        fluid_names = flows.fluid_dim_names()
        for name in model.rigid_names():
            values = np.array(
                [
                    m.allocated.get(name) / m.capacity.get(name)
                    if m.capacity.get(name) > 0
                    else 0.0
                    for m in cluster.machines
                ]
            )
            self.machine_samples.setdefault(name, []).append(values)
        for k, name in enumerate(fluid_names):
            caps = np.array(
                [m.capacity.get(name) for m in cluster.machines]
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                values = np.where(
                    caps > 0, per_machine_demand[:, k] / caps, 0.0
                )
            self.machine_samples.setdefault(name, []).append(values)

    def machine_usage_arrays(self) -> Dict[str, np.ndarray]:
        """Stacked per-machine utilization samples, one array per resource."""
        return {
            name: np.stack(samples)
            for name, samples in self.machine_samples.items()
        }

    # -- fairness integrals -------------------------------------------------
    def accumulate_fairness(
        self, dt: float, job_shares: Dict[int, float]
    ) -> None:
        """Advance the unfairness integrals by ``dt``.

        ``job_shares`` maps active job ids to their current dominant
        resource share; the purported fair share is an equal split among
        the currently active jobs.
        """
        if not self.track_fairness or dt <= 0 or not job_shares:
            return
        fair = 1.0 / len(job_shares)
        for job_id, share in job_shares.items():
            delta = (share - fair) / fair * dt
            self.unfairness_integral[job_id] = (
                self.unfairness_integral.get(job_id, 0.0) + delta
            )
            self.share_integral[job_id] = (
                self.share_integral.get(job_id, 0.0) + share * dt
            )

    # -- summary metrics ----------------------------------------------------
    def completion_times(self) -> Dict[int, float]:
        return {jid: rec.completion_time for jid, rec in self.jobs.items()}

    def mean_jct(self) -> float:
        if not self.jobs:
            return 0.0
        return float(
            np.mean([rec.completion_time for rec in self.jobs.values()])
        )

    def median_jct(self) -> float:
        if not self.jobs:
            return 0.0
        return float(
            np.median([rec.completion_time for rec in self.jobs.values()])
        )

    def makespan(self) -> float:
        if self.first_arrival is None:
            return 0.0
        return self.last_finish - self.first_arrival

    def mean_task_duration(self) -> float:
        if not self.task_durations:
            return 0.0
        return float(np.mean(self.task_durations))

    def running_tasks_series(self) -> List[tuple]:
        return [(p.time, p.running_tasks) for p in self.timeline]

    def utilization_series(self, resource: str) -> List[tuple]:
        return [
            (p.time, p.demand_utilization.get(resource, 0.0))
            for p in self.timeline
        ]

    def summary(self) -> Dict[str, float]:
        return {
            "jobs": float(len(self.jobs)),
            "mean_jct": self.mean_jct(),
            "median_jct": self.median_jct(),
            "makespan": self.makespan(),
            "mean_task_duration": self.mean_task_duration(),
        }
