"""Metrics: completion times, makespan, utilization timelines, fairness.

The Prometheus-style instrumentation registry lives in
:mod:`repro.obs.registry`; it is re-exported here so callers that think
of it as "the metrics" find it in the natural place.
"""

from repro.metrics.collector import MetricsCollector, TimelinePoint
from repro.obs.registry import Histogram, Registry
from repro.metrics.fairness import (
    job_slowdowns,
    relative_integral_unfairness_summary,
    slowdown_summary,
)
from repro.metrics.comparison import (
    improvement_percent,
    improvement_distribution,
    cdf_points,
)

__all__ = [
    "MetricsCollector",
    "TimelinePoint",
    "Histogram",
    "Registry",
    "job_slowdowns",
    "relative_integral_unfairness_summary",
    "slowdown_summary",
    "improvement_percent",
    "improvement_distribution",
    "cdf_points",
]
