"""Event queue tests — the queue and its oracle must behave identically."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.events import EventKind, EventQueue

from event_oracles import ArrayEventQueue

QUEUES = [EventQueue, ArrayEventQueue]


@pytest.mark.parametrize("queue_cls", QUEUES)
class TestEventQueue:
    def test_empty_peek_is_infinite(self, queue_cls):
        assert queue_cls().peek_time() == float("inf")

    def test_ordering(self, queue_cls):
        q = queue_cls()
        q.push(5.0, EventKind.WAKEUP, "b")
        q.push(1.0, EventKind.WAKEUP, "a")
        q.push(9.0, EventKind.WAKEUP, "c")
        assert q.peek_time() == 1.0
        events = q.pop_until(6.0)
        assert [e.payload for e in events] == ["a", "b"]
        assert len(q) == 1

    def test_ties_pop_in_push_order(self, queue_cls):
        q = queue_cls()
        q.push(2.0, EventKind.WAKEUP, "first")
        q.push(2.0, EventKind.WAKEUP, "second")
        events = q.pop_until(2.0)
        assert [e.payload for e in events] == ["first", "second"]

    def test_pop_until_respects_epsilon(self, queue_cls):
        q = queue_cls()
        q.push(1.0, EventKind.WAKEUP)
        assert len(q.pop_until(1.0 - 1e-13)) == 1

    def test_epsilon_scales_at_large_clock_values(self, queue_cls):
        # the old absolute 1e-12 epsilon fell below one ulp once the
        # clock passed ~1e4 simulated seconds, so an event one ulp after
        # the pop time (a float rounding artifact of an exact tie) was
        # silently left behind
        for t in (4e4, 1e6, 3e8):
            q = queue_cls()
            q.push(float(np.nextafter(t, np.inf)), EventKind.WAKEUP)
            assert len(q.pop_until(t)) == 1, f"ulp-tie missed at t={t}"

    def test_epsilon_does_not_pop_genuinely_later_events(self, queue_cls):
        q = queue_cls()
        q.push(4e4 + 1e-6, EventKind.WAKEUP)
        assert len(q.pop_until(4e4)) == 0
        q2 = queue_cls()
        q2.push(1.0 + 1e-9, EventKind.WAKEUP)
        assert len(q2.pop_until(1.0)) == 0

    def test_large_t_tie_ordering(self, queue_cls):
        # ulp-scale ties at a late simulated clock must pop together AND
        # in push order (seq breaks the tie deterministically)
        for t in (1e6, 1e7, 5e8):
            q = queue_cls()
            q.push(float(np.nextafter(t, np.inf)), EventKind.WAKEUP, "after")
            q.push(t, EventKind.WAKEUP, "exact")
            events = q.pop_until(t)
            # time order first, then push order within exact ties
            assert [e.payload for e in events] == ["exact", "after"]

    def test_large_t_relative_cutoff_boundary(self, queue_cls):
        # an event beyond the relative tolerance stays queued even when
        # the absolute gap is tiny compared to the clock
        t = 1e6
        gap = 10 * queue_cls.TIE_RTOL * t
        q = queue_cls()
        q.push(t + gap, EventKind.WAKEUP)
        assert len(q.pop_until(t)) == 0
        assert len(q.pop_until(t + gap)) == 1

    def test_negative_time_rejected(self, queue_cls):
        with pytest.raises(ValueError):
            queue_cls().push(-1.0, EventKind.WAKEUP)

    def test_bool(self, queue_cls):
        q = queue_cls()
        assert not q
        q.push(0.0, EventKind.WAKEUP)
        assert q

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), max_size=50))
    def test_pop_order_is_sorted(self, queue_cls, times):
        q = queue_cls()
        for t in times:
            q.push(t, EventKind.WAKEUP)
        popped = [e.time for e in q.pop_until(float("inf"))]
        assert popped == sorted(times)

    def test_has_pending_filters_by_kind(self, queue_cls):
        q = queue_cls()
        assert not q.has_pending()
        assert not q.has_pending(EventKind.JOB_ARRIVAL)
        q.push(1.0, EventKind.TRACKER_REPORT)
        q.push(2.0, EventKind.JOB_ARRIVAL)
        assert q.has_pending()
        assert q.has_pending(EventKind.JOB_ARRIVAL)
        assert q.has_pending(
            EventKind.JOB_ARRIVAL, EventKind.ACTIVITY_START
        )
        assert not q.has_pending(EventKind.ACTIVITY_START)
        q.pop_until(2.0)
        assert not q.has_pending(EventKind.JOB_ARRIVAL)


class TestQueueEquivalence:
    """Both queues driven with identical traffic pop identical sequences."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e9, allow_nan=False),
                st.sampled_from(list(EventKind)),
            ),
            max_size=60,
        ),
        st.lists(
            st.floats(min_value=0, max_value=2e9, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
    )
    def test_interleaved_pop_sequences_match(self, pushes, pop_times):
        ref, queue = ArrayEventQueue(), EventQueue()
        for t, kind in pushes:
            ref.push(t, kind, payload=(t, kind))
            queue.push(t, kind, payload=(t, kind))
        for pt in sorted(pop_times):
            a = ref.pop_until(pt)
            b = queue.pop_until(pt)
            assert [(e.time, e.seq, e.kind, e.payload) for e in a] == [
                (e.time, e.seq, e.kind, e.payload) for e in b
            ]
            assert ref.peek_time() == queue.peek_time()
            assert len(ref) == len(queue)

    def test_ulp_tie_storm_at_large_clock(self):
        # many near-identical times around t=1e6: pop order must match
        # exactly, including which events count as ties
        t = 1e6
        times = [t]
        for _ in range(5):
            times.append(float(np.nextafter(times[-1], np.inf)))
        times += [t + 1e-3, t - 1e-3]
        ref, queue = ArrayEventQueue(), EventQueue()
        for i, tt in enumerate(times):
            ref.push(tt, EventKind.WAKEUP, i)
            queue.push(tt, EventKind.WAKEUP, i)
        a = ref.pop_until(t)
        b = queue.pop_until(t)
        assert [e.payload for e in a] == [e.payload for e in b]
        # the ulp chain and the earlier event are ties, the +1e-3 is not
        assert len(a) == len(times) - 1
        assert len(ref) == len(queue) == 1


def _oracle_kinds(ref):
    """A scan of the oracle's queued kind codes, as one count per kind."""
    codes = ref._kind[: len(ref)]
    return {kind: int((codes == code).sum()) for code, kind in enumerate(EventKind)}


class TestPendingCounts:
    """The queue's per-kind counts against a scan of the oracle heap."""

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.floats(min_value=0, max_value=1e3, allow_nan=False),
                    st.sampled_from(list(EventKind)),
                ),
                st.tuples(
                    st.just("pop"),
                    st.floats(min_value=0, max_value=1e3, allow_nan=False),
                ),
            ),
            max_size=80,
        )
    )
    def test_counts_equal_oracle_scan_after_every_call(self, ops):
        ref, queue = ArrayEventQueue(), EventQueue()
        for op in ops:
            if op[0] == "push":
                ref.push(op[1], op[2])
                queue.push(op[1], op[2])
            else:
                assert [e.seq for e in ref.pop_until(op[1])] == [
                    e.seq for e in queue.pop_until(op[1])
                ]
            assert queue._pending == _oracle_kinds(ref)
            for kind in EventKind:
                assert queue.has_pending(kind) == ref.has_pending(kind)
            assert queue.has_pending(
                EventKind.JOB_ARRIVAL, EventKind.ACTIVITY_START
            ) == ref.has_pending(EventKind.JOB_ARRIVAL, EventKind.ACTIVITY_START)
            assert queue.has_pending() == ref.has_pending()
