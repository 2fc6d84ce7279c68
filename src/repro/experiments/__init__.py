"""Experiment harness and canned configurations for every table/figure."""

from repro.experiments.harness import (
    ExperimentConfig,
    RunResult,
    run_comparison,
    run_trace,
)
from repro.experiments.motivating import (
    MotivatingExample,
    RoundSchedule,
    drf_schedule,
    packing_schedule,
)
from repro.experiments.replication import (
    MetricSummary,
    ReplicatedComparison,
    replicate,
)

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "run_trace",
    "run_comparison",
    "MotivatingExample",
    "RoundSchedule",
    "drf_schedule",
    "packing_schedule",
    "MetricSummary",
    "ReplicatedComparison",
    "replicate",
]
