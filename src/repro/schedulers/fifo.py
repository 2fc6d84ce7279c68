"""FIFO: earliest-arrived job first, CPU+memory admission only."""

from __future__ import annotations

from repro.schedulers.fair_share import FairShareScheduler
from repro.workload.job import Job

__all__ = ["FifoScheduler"]


class FifoScheduler(FairShareScheduler):
    """Jobs served strictly in arrival order.

    Checks only CPU and memory, so it over-allocates disk and network
    exactly like the slot-based schedulers the paper criticizes.
    """

    name = "fifo"

    def _key(self, job: Job) -> tuple:
        return (job.arrival_time, job.job_id)
