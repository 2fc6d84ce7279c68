"""Fairness policies: how far is each job below its fair share?

Section 3.4 observes that most fair schedulers share one skeleton: offer
the next available resource to the job *furthest below* its fair share.
Tetris plugs into any of them by consuming only the resulting ordering.
A policy returns a *deficit* — larger means further below fair share, so
sorting by descending deficit puts the most-starved job first.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.schedulers.base import Scheduler
    from repro.workload.job import Job

__all__ = ["FairnessPolicy", "SlotFairnessPolicy", "DRFFairnessPolicy"]


class FairnessPolicy(abc.ABC):
    """Computes per-job fair-share deficits for a scheduler's job set."""

    @abc.abstractmethod
    def deficit(self, scheduler: "Scheduler", job: "Job") -> float:
        """How far ``job`` is below its fair share (higher = more starved)."""


class SlotFairnessPolicy(FairnessPolicy):
    """Slot-count fairness (Hadoop Fair/Capacity scheduler style).

    Fair share is an equal split of the cluster's memory-defined slots
    among active jobs; the deficit is the fair share minus the job's
    currently-running task count.
    """

    def __init__(self, slot_mem_gb: float = 2.0):
        if slot_mem_gb <= 0:
            raise ValueError("slot size must be positive")
        self.slot_mem_gb = slot_mem_gb

    def total_slots(self, scheduler: "Scheduler") -> int:
        return scheduler.cluster.memory_slots(self.slot_mem_gb)[1]

    def deficit(self, scheduler: "Scheduler", job: "Job") -> float:
        active = max(len(scheduler.active_jobs), 1)
        fair = self.total_slots(scheduler) / active
        used = sum(stage.num_running for stage in job.dag)
        return (fair - used) / max(fair, 1.0)


class DRFFairnessPolicy(FairnessPolicy):
    """Dominant Resource Fairness ordering (Ghodsi et al., NSDI 2011).

    The deficit is the equal-split fair share minus the job's dominant
    resource share, computed over ``dims`` (DRF implementations in YARN
    consider CPU and memory only).
    """

    def __init__(self, dims: Tuple[str, ...] = ("cpu", "mem")):
        self.dims = tuple(dims)

    def dominant_share(self, scheduler: "Scheduler", job: "Job") -> float:
        return scheduler.dominant_share(job, self.dims)

    def deficit(self, scheduler: "Scheduler", job: "Job") -> float:
        active = max(len(scheduler.active_jobs), 1)
        fair = 1.0 / active
        return fair - scheduler.dominant_share(job, self.dims)
