"""The profiling hooks: PhaseStats edge cases and Profiler round-trips."""

import statistics

import pytest

from repro.profiling import PhaseStats, Profiler


class TestPhaseStats:
    def test_empty_min_is_zero_not_inf(self):
        """An empty phase reports min=0.0; the old field default leaked
        ``inf`` into the phase reports."""
        stats = PhaseStats()
        assert stats.min == 0.0
        assert stats.mean == 0.0
        assert stats.max == 0.0

    def test_min_tracks_smallest_sample(self):
        stats = PhaseStats()
        stats.add(0.5)
        stats.add(0.1)
        stats.add(0.9)
        assert stats.min == 0.1
        assert stats.max == 0.9
        assert stats.count == 3
        assert stats.total == 0.5 + 0.1 + 0.9

    def test_single_sample(self):
        stats = PhaseStats()
        stats.add(0.25)
        assert stats.min == 0.25 == stats.max == stats.mean


class TestWelford:
    def test_variance_matches_statistics_module(self):
        samples = [0.5, 0.1, 0.9, 0.4, 0.40001, 12.0]
        stats = PhaseStats()
        for s in samples:
            stats.add(s)
        assert stats.variance == pytest.approx(statistics.variance(samples))
        assert stats.stddev == pytest.approx(statistics.stdev(samples))
        assert stats.mean == pytest.approx(statistics.mean(samples))

    def test_variance_zero_below_two_samples(self):
        stats = PhaseStats()
        assert stats.variance == 0.0
        assert stats.stddev == 0.0
        stats.add(3.0)
        assert stats.variance == 0.0

    def test_identical_samples_have_zero_variance(self):
        stats = PhaseStats()
        for _ in range(100):
            stats.add(0.125)
        assert stats.variance == pytest.approx(0.0, abs=1e-18)

    def test_numerically_stable_with_large_offset(self):
        """Welford's one-pass form must not cancel catastrophically when
        the spread is tiny relative to the magnitude (the naive
        sum-of-squares formula fails this)."""
        offset = 1e9
        samples = [offset + d for d in (0.0, 1.0, 2.0)]
        stats = PhaseStats()
        for s in samples:
            stats.add(s)
        assert stats.variance == pytest.approx(1.0, rel=1e-6)


class TestProfiler:
    def test_record_and_stats(self):
        prof = Profiler()
        prof.record("phase", 0.01)
        prof.record("phase", 0.03)
        s = prof.stats("phase")
        assert s.count == 2
        assert s.mean == 0.02

    def test_time_context_manager(self):
        prof = Profiler()
        with prof.time("work"):
            pass
        assert prof.stats("work").count == 1
        assert prof.stats("work").total >= 0.0

    def test_labels_returns_list_of_str(self):
        prof = Profiler()
        prof.record("b", 0.1)
        prof.record("a", 0.1)
        labels = prof.labels()
        assert labels == ["a", "b"]
        assert all(isinstance(label, str) for label in labels)

    def test_stats_unknown_label_is_detached(self):
        """Probing an unknown label neither registers it nor feeds back."""
        prof = Profiler()
        detached = prof.stats("never-recorded")
        assert detached.count == 0
        detached.add(1.0)
        assert prof.labels() == []
        assert prof.stats("never-recorded").count == 0


class TestNesting:
    def test_reentrant_same_label_records_once(self):
        """Recursive entry of an open phase must not double-count wall
        time: only the outermost frame records a sample."""
        prof = Profiler()
        with prof.time("round"):
            with prof.time("round"):
                with prof.time("round"):
                    pass
        assert prof.stats("round").count == 1

    def test_reentrant_exit_restores_depth(self):
        prof = Profiler()
        with prof.time("round"):
            with prof.time("round"):
                pass
            # inner exit must not close the outer frame
            with prof.time("round"):
                pass
        assert prof.stats("round").count == 1
        # fully closed: a fresh entry records a second sample
        with prof.time("round"):
            pass
        assert prof.stats("round").count == 2

    def test_reentrant_frame_survives_exception(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with prof.time("round"):
                with prof.time("round"):
                    raise ValueError("boom")
        assert prof.stats("round").count == 1
        assert prof._open == {}
        assert prof._frames == []

    def test_self_time_excludes_nested_phase(self):
        import time as _time

        prof = Profiler()
        with prof.time("outer"):
            _time.sleep(0.01)
            with prof.time("inner"):
                _time.sleep(0.02)
        outer, inner = prof.stats("outer"), prof.stats("inner")
        # cumulative outer covers the inner phase...
        assert outer.total >= inner.total
        # ...but self time does not
        assert prof.self_total("outer") == pytest.approx(
            outer.total - inner.total
        )
        assert prof.self_total("inner") == pytest.approx(inner.total)

    def test_self_time_defaults_to_duration_for_record(self):
        prof = Profiler()
        prof.record("flat", 0.5)
        prof.record("flat", 0.25)
        assert prof.self_total("flat") == pytest.approx(0.75)

    def test_self_total_unknown_label_is_zero(self):
        assert Profiler().self_total("nope") == 0.0

