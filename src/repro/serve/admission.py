"""Admission control for the streaming scheduler service.

Arrivals pass through two gates before reaching the pending queue:

1. a **token bucket** (reusing :class:`repro.enforcement.token_bucket.
   TokenBucket`, the paper's Section 4.2 enforcement primitive) limits
   the sustained admission rate, with the bucket size bounding bursts;
2. a **bounded pending queue** caps how many admitted-but-uncommitted
   arrivals the service holds — the memory bound of the daemon.

What happens at a full queue is the backpressure policy: ``"reject"``
sheds the arrival (load-shedding, the default for a daemon that must
stay responsive), ``"block"`` suspends the producer until the consumer
drains a slot (classic backpressure, the mode for lossless replays).
Every decision is accounted in :class:`AdmissionStats` — rejects are
*explicit*, never silent.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.enforcement.token_bucket import TokenBucket
from repro.serve.sources import Arrival

__all__ = ["AdmissionConfig", "AdmissionController", "AdmissionStats"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission knobs.

    ``rate`` is the sustained admission rate in jobs per wall-clock
    second (None = unlimited); ``burst`` the token-bucket capacity in
    jobs; ``queue_cap`` the pending-queue bound; ``policy`` what a full
    queue does to a new arrival (``"reject"`` or ``"block"``).
    """

    rate: Optional[float] = None
    burst: float = 8.0
    queue_cap: int = 1024
    policy: str = "reject"

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if self.queue_cap < 1:
            raise ValueError(
                f"queue_cap must be at least 1, got {self.queue_cap}"
            )
        if self.policy not in ("reject", "block"):
            raise ValueError(
                f"policy must be 'reject' or 'block', got {self.policy!r}"
            )


@dataclass
class AdmissionStats:
    """Explicit accounting of every admission decision."""

    offered: int = 0
    admitted: int = 0
    rejected_rate: int = 0
    rejected_queue_full: int = 0
    rejected_closed: int = 0
    #: wall seconds producers spent suspended by the "block" policy
    blocked_seconds: float = 0.0
    peak_depth: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_rate
            + self.rejected_queue_full
            + self.rejected_closed
        )

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_rate": self.rejected_rate,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_closed": self.rejected_closed,
            "blocked_seconds": self.blocked_seconds,
            "peak_depth": self.peak_depth,
        }


class AdmissionController:
    """Token-bucket rate limit in front of a bounded pending queue.

    ``clock`` supplies wall time for the bucket (defaults to the running
    loop's monotonic clock); tests inject a fake clock to exercise rate
    rejection deterministically.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.config = config if config is not None else AdmissionConfig()
        self.stats = AdmissionStats()
        self._clock = clock
        self._bucket: Optional[TokenBucket] = None
        if self.config.rate is not None:
            self._bucket = TokenBucket(
                rate=self.config.rate, burst=self.config.burst
            )
        self._queue: Deque[Arrival] = deque()
        self._closed = False
        self._state_changed = asyncio.Condition()

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_running_loop().time()

    @property
    def depth(self) -> int:
        return len(self._queue)

    # -- producer side -----------------------------------------------------------
    async def offer(self, arrival: Arrival) -> bool:
        """Submit one arrival; returns True iff it entered the queue.

        A rate-limited or queue-full (under ``"reject"``) arrival is
        shed and accounted.  Under ``"block"`` a full queue suspends the
        caller until space opens — the explicit backpressure path.
        """
        self.stats.offered += 1
        if self._closed:
            self.stats.rejected_closed += 1
            return False
        if self._bucket is not None and not self._bucket.try_consume(
            1.0, self._now()
        ):
            self.stats.rejected_rate += 1
            return False
        async with self._state_changed:
            if len(self._queue) >= self.config.queue_cap:
                if self.config.policy == "reject":
                    self.stats.rejected_queue_full += 1
                    return False
                blocked_from = self._now()
                await self._state_changed.wait_for(
                    lambda: self._closed
                    or len(self._queue) < self.config.queue_cap
                )
                self.stats.blocked_seconds += self._now() - blocked_from
                if self._closed:
                    self.stats.rejected_closed += 1
                    return False
            self._queue.append(arrival)
            self.stats.admitted += 1
            self.stats.peak_depth = max(
                self.stats.peak_depth, len(self._queue)
            )
            self._state_changed.notify_all()
        return True

    async def close(self) -> None:
        """No more offers will be accepted; wakes all waiters."""
        async with self._state_changed:
            self._closed = True
            self._state_changed.notify_all()

    # -- consumer side -----------------------------------------------------------
    async def next_batch(
        self, max_batch: int = 64
    ) -> Optional[List[Arrival]]:
        """Take up to ``max_batch`` queued arrivals, waiting for at least
        one; returns None once the controller is closed *and* drained."""
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        async with self._state_changed:
            await self._state_changed.wait_for(
                lambda: self._queue or self._closed
            )
            if not self._queue:
                return None
            batch = [
                self._queue.popleft()
                for _ in range(min(max_batch, len(self._queue)))
            ]
            # slots opened: wake producers blocked on backpressure
            self._state_changed.notify_all()
            return batch
