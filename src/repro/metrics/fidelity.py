"""Packing-fidelity deltas between two runs of the same trace.

Given a reference run and a candidate run over the same trace, this
module reports the deltas of the three packing outcomes the paper
argues about —

- **makespan** (Section 5.1's primary win),
- **mean job completion time**,
- **fragmentation**: how much of the cluster sat unused at the average
  sampled instant, measured on the bottleneck dimension (``1 - mean
  over timeline samples of max-dimension demand utilization``).  Worse
  packing strands capacity across machines, which shows up here even
  when makespan barely moves.

Deltas are signed percentages (percentage *points* for fragmentation,
which is already a ratio); positive means the candidate is worse.  The
report knows how to gate itself (:meth:`FidelityReport.within`);
``repro compare --fidelity`` prints the deltas against ``--baseline``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import RunResult
    from repro.metrics.collector import MetricsCollector

__all__ = ["FidelityReport", "packing_fidelity", "timeline_fragmentation"]


def _delta_pct(reference: float, candidate: float) -> float:
    """Signed relative delta in percent; 0/0 compares equal."""
    if reference == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return (candidate - reference) / reference * 100.0


def timeline_fragmentation(collector: "MetricsCollector") -> float:
    """Mean unused fraction of the bottleneck dimension, in [0, 1].

    Each timeline sample contributes ``1 - max_d util_d`` — the slack
    left on the most-loaded resource dimension.  Averaging over the
    run's samples gives a scalar "how much capacity the packing
    stranded" number; tighter packings score lower.
    """
    points = collector.timeline
    if not points:
        return 0.0
    total = 0.0
    for point in points:
        utils = point.demand_utilization.values()
        peak = max(utils) if utils else 0.0
        total += 1.0 - min(peak, 1.0)
    return total / len(points)


@dataclass(frozen=True)
class FidelityReport:
    """Three packing outcomes, reference vs candidate, with deltas."""

    makespan_ref: float
    makespan_cand: float
    mean_jct_ref: float
    mean_jct_cand: float
    fragmentation_ref: float
    fragmentation_cand: float

    @property
    def makespan_delta_pct(self) -> float:
        return _delta_pct(self.makespan_ref, self.makespan_cand)

    @property
    def mean_jct_delta_pct(self) -> float:
        return _delta_pct(self.mean_jct_ref, self.mean_jct_cand)

    @property
    def fragmentation_delta_points(self) -> float:
        """Percentage-point delta of the (already relative) fragmentation."""
        return (self.fragmentation_cand - self.fragmentation_ref) * 100.0

    def within(self, tolerance_pct: float = 5.0) -> bool:
        """True when makespan and mean JCT are no more than
        ``tolerance_pct`` percent worse than the reference (better is
        always fine; fragmentation is reported but not gated — it is a
        diagnosis, not an outcome)."""
        return (
            self.makespan_delta_pct <= tolerance_pct
            and self.mean_jct_delta_pct <= tolerance_pct
        )

    def rows(self) -> List[Dict[str, float]]:
        """Table-friendly rows, one per metric."""
        return [
            {
                "metric": "makespan",
                "reference": self.makespan_ref,
                "candidate": self.makespan_cand,
                "delta_pct": self.makespan_delta_pct,
            },
            {
                "metric": "mean_jct",
                "reference": self.mean_jct_ref,
                "candidate": self.mean_jct_cand,
                "delta_pct": self.mean_jct_delta_pct,
            },
            {
                "metric": "fragmentation",
                "reference": self.fragmentation_ref,
                "candidate": self.fragmentation_cand,
                "delta_pct": self.fragmentation_delta_points,
            },
        ]

    def as_dict(self) -> Dict[str, float]:
        return {
            "makespan_ref": self.makespan_ref,
            "makespan_cand": self.makespan_cand,
            "makespan_delta_pct": self.makespan_delta_pct,
            "mean_jct_ref": self.mean_jct_ref,
            "mean_jct_cand": self.mean_jct_cand,
            "mean_jct_delta_pct": self.mean_jct_delta_pct,
            "fragmentation_ref": self.fragmentation_ref,
            "fragmentation_cand": self.fragmentation_cand,
            "fragmentation_delta_points": self.fragmentation_delta_points,
        }


def packing_fidelity(
    reference: "RunResult", candidate: "RunResult"
) -> FidelityReport:
    """Compare two runs of the *same trace* (reference first)."""
    return FidelityReport(
        makespan_ref=reference.makespan,
        makespan_cand=candidate.makespan,
        mean_jct_ref=reference.mean_jct,
        mean_jct_cand=candidate.mean_jct,
        fragmentation_ref=timeline_fragmentation(reference.collector),
        fragmentation_cand=timeline_fragmentation(candidate.collector),
    )
