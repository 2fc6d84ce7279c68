"""Dominant Resource Fairness scheduler (Ghodsi et al., NSDI 2011).

Offers the next resources to the job with the *lowest dominant share*.
As deployed in YARN (and as the paper's baseline), DRF considers CPU and
memory only: it checks those two dimensions before placing and ignores
disk and network entirely, so it over-allocates I/O just like the slot
schedulers.  Pass ``dims`` to extend it (the paper's Section 2.1 example
discusses a DRF that also considers the network).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.schedulers.base import Placement
from repro.schedulers.fair_share import FairShareScheduler
from repro.workload.job import Job

__all__ = ["DRFScheduler"]


class DRFScheduler(FairShareScheduler):
    """Progressive-filling DRF over the chosen dimensions."""

    name = "drf"

    def __init__(self, dims: Tuple[str, ...] = ("cpu", "mem")):
        super().__init__()
        if not dims:
            raise ValueError("DRF needs at least one dimension")
        self.dims = tuple(dims)
        #: dominant shares of this round's jobs; they drift within the
        #: round as resources are handed out
        self._shares: Dict[int, float] = {}

    def bind(self, cluster, estimator=None, tracker=None) -> None:
        super().bind(cluster, estimator=estimator, tracker=tracker)
        capacity = cluster.total_capacity().data[self._dim_idx]
        # a dimension the cluster has none of never dominates
        self._capacity = np.where(capacity > 0, capacity, np.inf)

    def _key(self, job: Job) -> tuple:
        share = self._shares.get(job.job_id)
        if share is None:
            share = self._shares[job.job_id] = self.dominant_share(
                job, self.dims
            )
        return (share, job.job_id)

    def _admit(self, job: Job, task, machine_id: int):
        booked = super()._admit(job, task, machine_id)
        if booked is not None:
            bump = booked.data[self._dim_idx] / self._capacity
            self._shares[job.job_id] += max(0.0, float(bump.max()))
        return booked

    def schedule(
        self, time: float, machine_ids: Optional[List[int]] = None
    ) -> List[Placement]:
        self._shares.clear()
        return super().schedule(time, machine_ids)
