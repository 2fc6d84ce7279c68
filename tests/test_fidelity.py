"""Unit tests for the packing-fidelity helpers (repro.metrics.fidelity).

``repro compare --fidelity`` reports these numbers, so the delta
arithmetic and the tolerance logic are pinned directly: signed deltas (positive = candidate worse), percentage points
for the already-relative fragmentation number, and a ``within`` that
never penalizes a candidate for being *better*.
"""

import math
from types import SimpleNamespace

import pytest

from repro.metrics import (
    FidelityReport,
    packing_fidelity,
    timeline_fragmentation,
)
from repro.metrics.collector import TimelinePoint
from repro.metrics.fidelity import _delta_pct


def _point(time, demand):
    return TimelinePoint(
        time=time,
        running_tasks=0,
        demand_utilization=demand,
        throughput_utilization={},
    )


def _collector(points):
    return SimpleNamespace(timeline=list(points))


class TestDeltaPct:
    def test_signed_relative_percent(self):
        assert _delta_pct(100.0, 110.0) == pytest.approx(10.0)
        assert _delta_pct(100.0, 95.0) == pytest.approx(-5.0)

    def test_zero_reference(self):
        assert _delta_pct(0.0, 0.0) == 0.0
        assert _delta_pct(0.0, 1.0) == math.inf


class TestTimelineFragmentation:
    def test_empty_timeline_is_zero(self):
        assert timeline_fragmentation(_collector([])) == 0.0

    def test_mean_slack_on_bottleneck_dimension(self):
        # sample 1: bottleneck cpu at 0.8 -> slack 0.2
        # sample 2: bottleneck mem at 0.5 -> slack 0.5
        collector = _collector([
            _point(0.0, {"cpu": 0.8, "mem": 0.3}),
            _point(1.0, {"cpu": 0.2, "mem": 0.5}),
        ])
        assert timeline_fragmentation(collector) == pytest.approx(0.35)

    def test_overcommit_clamps_to_zero_slack(self):
        collector = _collector([_point(0.0, {"cpu": 1.4})])
        assert timeline_fragmentation(collector) == 0.0

    def test_dimensionless_sample_counts_as_idle(self):
        collector = _collector([_point(0.0, {})])
        assert timeline_fragmentation(collector) == 1.0


class TestFidelityReport:
    def _report(self, **overrides):
        fields = dict(
            makespan_ref=1000.0,
            makespan_cand=1030.0,
            mean_jct_ref=200.0,
            mean_jct_cand=204.0,
            fragmentation_ref=0.20,
            fragmentation_cand=0.23,
        )
        fields.update(overrides)
        return FidelityReport(**fields)

    def test_deltas(self):
        report = self._report()
        assert report.makespan_delta_pct == pytest.approx(3.0)
        assert report.mean_jct_delta_pct == pytest.approx(2.0)
        assert report.fragmentation_delta_points == pytest.approx(3.0)

    def test_within_tolerance(self):
        assert self._report().within(5.0)
        assert not self._report().within(2.5)  # makespan +3% breaches

    def test_within_gates_makespan_and_jct_only(self):
        # fragmentation is a diagnosis, not a gated outcome
        report = self._report(fragmentation_cand=0.90)
        assert report.within(5.0)

    def test_better_candidate_always_within(self):
        report = self._report(makespan_cand=900.0, mean_jct_cand=150.0)
        assert report.within(0.0)

    def test_either_regression_breaches(self):
        assert not self._report(mean_jct_cand=260.0).within(5.0)
        assert not self._report(makespan_cand=1200.0).within(5.0)

    def test_rows_and_dict_agree(self):
        report = self._report()
        rows = {row["metric"]: row for row in report.rows()}
        assert rows["makespan"]["delta_pct"] == report.makespan_delta_pct
        assert rows["mean_jct"]["delta_pct"] == report.mean_jct_delta_pct
        assert (
            rows["fragmentation"]["delta_pct"]
            == report.fragmentation_delta_points
        )
        as_dict = report.as_dict()
        assert as_dict["makespan_delta_pct"] == report.makespan_delta_pct
        assert as_dict["fragmentation_delta_points"] == pytest.approx(3.0)


class TestPackingFidelity:
    def test_builds_report_from_run_results(self):
        reference = SimpleNamespace(
            makespan=1000.0,
            mean_jct=200.0,
            collector=_collector([_point(0.0, {"cpu": 0.8})]),
        )
        candidate = SimpleNamespace(
            makespan=1050.0,
            mean_jct=210.0,
            collector=_collector([_point(0.0, {"cpu": 0.6})]),
        )
        report = packing_fidelity(reference, candidate)
        assert report.makespan_delta_pct == pytest.approx(5.0)
        assert report.mean_jct_delta_pct == pytest.approx(5.0)
        assert report.fragmentation_ref == pytest.approx(0.2)
        assert report.fragmentation_cand == pytest.approx(0.4)
        assert report.fragmentation_delta_points == pytest.approx(20.0)
        assert not report.within(4.9)
        assert report.within(5.0)
