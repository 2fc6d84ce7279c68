"""Job-arrival sources for the streaming scheduler service.

A source is an async iterator of :class:`Arrival` records in
nondecreasing *event time* (the simulated arrival instant).  Wall-clock
pacing is the source's business: a replay source sleeps between arrivals
to reproduce the trace's arrival process at a configurable time
compression, while ``speedup=0`` (the default) yields arrivals as fast
as the consumer can take them — the mode used for throughput replays and
for the bit-identity property test against the batch engine.

Ordering contract: arrivals must be yielded stable-sorted by event time.
The service's watermark discipline (advance the engine strictly below
the latest committed arrival time) relies on it, and the stable order
among equal-time arrivals is what keeps the streamed event sequence
bit-identical to the batch engine's primed one.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import AsyncIterator, List, Optional, Sequence

from repro.workload.job import Job

__all__ = ["Arrival", "JobSource", "TraceReplaySource"]


@dataclass(frozen=True)
class Arrival:
    """One job arriving at simulated time ``time`` (== ``job.arrival_time``)."""

    job: Job
    time: float


class JobSource:
    """Base class: an ordered, optionally wall-paced stream of arrivals."""

    #: total jobs this source will yield, when known in advance (None for
    #: an unbounded stream)
    total_jobs: Optional[int] = None

    def arrivals(self) -> AsyncIterator[Arrival]:
        raise NotImplementedError


async def _pace(delay: float) -> None:
    if delay > 0:
        await asyncio.sleep(delay)


class TraceReplaySource(JobSource):
    """Replay materialized jobs at their trace arrival times.

    ``speedup`` compresses time: ``speedup=60`` replays one simulated
    minute per wall second; ``speedup=0`` (or ``None``) disables pacing
    entirely and yields arrivals back-to-back.  Jobs are yielded
    stable-sorted by arrival time, so a trace whose records are not
    time-ordered still satisfies the source ordering contract while
    equal-time jobs keep their trace order (the batch engine's
    tie-break).
    """

    def __init__(self, jobs: Sequence[Job], speedup: float = 0.0):
        if speedup < 0:
            raise ValueError(f"speedup must be non-negative, got {speedup}")
        self._jobs: List[Job] = sorted(jobs, key=lambda j: j.arrival_time)
        self.speedup = speedup
        self.total_jobs = len(self._jobs)

    async def arrivals(self) -> AsyncIterator[Arrival]:
        prev = self._jobs[0].arrival_time if self._jobs else 0.0
        for job in self._jobs:
            if self.speedup > 0:
                await _pace((job.arrival_time - prev) / self.speedup)
            prev = job.arrival_time
            yield Arrival(job, job.arrival_time)
