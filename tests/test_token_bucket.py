"""Token bucket / I/O gate enforcement tests (Section 4.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.enforcement.token_bucket import IoGate, TokenBucket


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=10, burst=100)
        assert bucket.try_consume(100, now=0.0)
        assert not bucket.try_consume(1, now=0.0)

    def test_refill_at_rate(self):
        bucket = TokenBucket(rate=10, burst=100)
        bucket.try_consume(100, now=0.0)
        assert not bucket.try_consume(50, now=4.0)  # only 40 accrued
        assert bucket.try_consume(50, now=5.0)

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate=10, burst=50)
        assert not bucket.try_consume(60, now=1000.0)
        assert bucket.try_consume(50, now=1000.0)

    def test_time_until_available(self):
        bucket = TokenBucket(rate=10, burst=100)
        bucket.try_consume(100, now=0.0)
        assert bucket.time_until_available(30, now=0.0) == pytest.approx(3.0)
        assert bucket.time_until_available(0, now=0.0) == 0.0

    def test_oversized_request_rejected(self):
        bucket = TokenBucket(rate=10, burst=50)
        with pytest.raises(ValueError):
            bucket.time_until_available(60, now=0.0)

    def test_time_monotonicity_enforced(self):
        bucket = TokenBucket(rate=10, burst=50)
        bucket.refill(5.0)
        with pytest.raises(ValueError):
            bucket.refill(4.0)

    @pytest.mark.parametrize("rate,burst", [(0, 10), (-1, 10), (10, 0)])
    def test_invalid_params(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10),  # dt
                st.floats(min_value=0, max_value=50),     # request
            ),
            max_size=30,
        )
    )
    def test_never_over_delivers(self, steps):
        """Total granted never exceeds burst + rate * elapsed."""
        bucket = TokenBucket(rate=5, burst=50)
        now, granted = 0.0, 0.0
        for dt, request in steps:
            now += dt
            if bucket.try_consume(request, now):
                granted += request
        assert granted <= 50 + 5 * now + 1e-6


class TestIoGate:
    def test_grants_within_budget(self):
        gate = IoGate(TokenBucket(rate=10, burst=100))
        assert gate.request(60, now=0.0)
        assert gate.granted_bytes == 60

    def test_queues_excess(self):
        gate = IoGate(TokenBucket(rate=10, burst=100))
        assert gate.request(80, now=0.0)
        assert not gate.request(80, now=0.0, token="queued")
        assert gate.backlog == 1

    def test_drain_releases_in_fifo_order(self):
        gate = IoGate(TokenBucket(rate=10, burst=100))
        gate.request(100, now=0.0)
        gate.request(30, now=0.0, token="a")
        gate.request(30, now=0.0, token="b")
        assert gate.drain(now=3.5) == ["a"]
        assert gate.drain(now=7.0) == ["b"]
        assert gate.backlog == 0

    def test_queued_calls_block_later_ones(self):
        """FIFO: a small later call cannot jump a large queued call."""
        gate = IoGate(TokenBucket(rate=10, burst=100))
        gate.request(100, now=0.0)
        gate.request(90, now=0.0, token="big")
        assert not gate.request(1, now=0.5, token="small")
        assert gate.backlog == 2

    def test_enforcement_rate_end_to_end(self):
        """Pushing far more than the allocation through the gate delivers
        at the allocated rate over time — the Section 4.2 guarantee."""
        gate = IoGate(TokenBucket(rate=10, burst=10, initial=0))
        sent = 0.0
        for step in range(101):  # 100 seconds, offered load 25 MB/s
            now = float(step)
            sent += 5 * len(gate.drain(now))
            for _ in range(5):
                if gate.request(5, now=now):
                    sent += 5
        assert sent <= 10 * 100 + 10
        assert sent >= 10 * 100 - 25
