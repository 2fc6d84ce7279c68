"""Token buckets that enforce per-task I/O allocations (Section 4.2).

User code is arbitrary — a TCP flow will happily ramp to the whole NIC.
The prototype intercepts filesystem and network calls and routes each one
through a token bucket: the call proceeds if enough tokens remain and is
queued otherwise.  Tokens arrive at the allocated rate; the bucket size
bounds the burst.

This module is a faithful, standalone implementation of that mechanism;
the simulator uses it in tests and examples (the fluid model already caps
rates, so the engine does not route every simulated byte through here).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

__all__ = ["TokenBucket", "IoGate"]


class TokenBucket:
    """A classic token bucket.

    Parameters
    ----------
    rate:
        Token arrival rate (e.g. MB/s of allocated bandwidth).
    burst:
        Bucket capacity — the largest instantaneous burst allowed.
    initial:
        Starting token count (defaults to a full bucket).
    """

    def __init__(
        self, rate: float, burst: float, initial: Optional[float] = None
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        if burst <= 0:
            raise ValueError(f"burst must be positive: {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst if initial is None else min(initial, burst)
        self.last_refill = 0.0

    def refill(self, now: float) -> None:
        """Accrue tokens up to ``now`` (monotonic simulation seconds)."""
        if now < self.last_refill:
            raise ValueError("time went backwards")
        self.tokens = min(
            self.burst, self.tokens + (now - self.last_refill) * self.rate
        )
        self.last_refill = now

    def try_consume(self, amount: float, now: float) -> bool:
        """Take ``amount`` tokens if available; returns success."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self.refill(now)
        if self.tokens + 1e-12 >= amount:
            self.tokens -= amount
            return True
        return False

    def time_until_available(self, amount: float, now: float) -> float:
        """Seconds until ``amount`` tokens will exist (0 if already there)."""
        if amount > self.burst:
            raise ValueError(
                f"request {amount} exceeds burst capacity {self.burst}"
            )
        self.refill(now)
        deficit = amount - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class IoGate:
    """Routes I/O calls through a token bucket, queueing what does not fit.

    Mirrors the prototype's interception layer: each read/write call asks
    the gate; granted calls proceed, others wait in FIFO order and drain
    as tokens accrue.
    """

    def __init__(self, bucket: TokenBucket):
        self.bucket = bucket
        self._queue: Deque[Tuple[float, object]] = deque()
        self.granted_bytes = 0.0
        self.queued_calls = 0

    def request(self, amount: float, now: float, token: object = None) -> bool:
        """Submit a call of ``amount`` bytes; True if it goes through now.

        Queued calls are *not* drained here — call :meth:`drain` to learn
        which earlier calls have been released (FIFO order is preserved:
        a new call never jumps a queued one).
        """
        if not self._queue and self.bucket.try_consume(amount, now):
            self.granted_bytes += amount
            return True
        self._queue.append((amount, token))
        self.queued_calls += 1
        return False

    def drain(self, now: float) -> List[object]:
        """Release queued calls that now fit; returns their tokens."""
        released: List[object] = []
        while self._queue:
            amount, token = self._queue[0]
            if not self.bucket.try_consume(amount, now):
                break
            self._queue.popleft()
            self.granted_bytes += amount
            released.append(token)
        return released

    @property
    def backlog(self) -> int:
        return len(self._queue)
