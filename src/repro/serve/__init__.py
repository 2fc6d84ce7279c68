"""Streaming scheduler service: the simulator as a long-lived daemon.

Tetris runs inside the cluster RM as a continuously-serving scheduler
(Section 5), not as a batch replay.  This package turns the discrete-event
engine into exactly that:

- :mod:`repro.serve.sources` — job-arrival streams: trace replay at
  configurable time compression;
- :mod:`repro.serve.admission` — the admission controller: a token-bucket
  rate limit in front of a bounded pending queue, with explicit
  backpressure/reject accounting;
- :mod:`repro.serve.service` — :class:`SchedulerService`, the asyncio
  daemon that stages admitted arrival batches, commits them into the
  engine under an event-time watermark, and reports sustained
  placements/sec.

The core correctness invariant (learned the hard way by event-driven
scheduler comparisons): **in-batch tentative state is kept strictly
separate from authoritative cluster state until commit**.  Staging a
batch touches neither the engine, the cluster, nor any machine's free
vector — an aborted batch leaves nothing to undo, so free vectors can
never be double-deducted.  :func:`verify_free_vectors` re-derives every
machine's allocation from first principles after commits to prove it.
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
)
from repro.serve.service import (
    SchedulerService,
    ServeConfig,
    ServeReport,
    StagingError,
    verify_free_vectors,
)
from repro.serve.sources import (
    Arrival,
    JobSource,
    TraceReplaySource,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "Arrival",
    "JobSource",
    "SchedulerService",
    "ServeConfig",
    "ServeReport",
    "StagingError",
    "TraceReplaySource",
    "verify_free_vectors",
]
