"""Fairness metrics: slowdown vs. a fair baseline and relative integral
unfairness (Section 5.3.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

__all__ = [
    "job_slowdowns",
    "slowdown_summary",
    "SlowdownSummary",
    "relative_integral_unfairness_summary",
    "jains_index",
]


def jains_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index of a set of allocations.

    (sum x)^2 / (n * sum x^2): 1.0 when everyone gets the same, 1/n when
    one party gets everything.  Used to summarize how evenly a scheduler
    divided the cluster (e.g., over per-job average shares).
    """
    arr = np.asarray(list(allocations), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one allocation")
    if np.any(arr < 0):
        raise ValueError("allocations must be non-negative")
    denom = arr.size * float(np.dot(arr, arr))
    if denom == 0:
        return 1.0  # everyone got the same (nothing)
    return float(arr.sum() ** 2 / denom)


def job_slowdowns(
    fair_jcts: Mapping[int, float], other_jcts: Mapping[int, float]
) -> Dict[int, float]:
    """Per-job fractional slowdown of ``other`` relative to ``fair``.

    Positive values mean the job took *longer* than under the fair
    scheduler; the paper reports the fraction of jobs with positive
    slowdown and its magnitude (Figure 9).
    Jobs present in only one run are ignored.
    """
    out: Dict[int, float] = {}
    for job_id, fair_jct in fair_jcts.items():
        if job_id not in other_jcts or fair_jct <= 0:
            continue
        out[job_id] = (other_jcts[job_id] - fair_jct) / fair_jct
    return out


@dataclass(frozen=True)
class SlowdownSummary:
    """Prevalence and magnitude of job slowdown vs. a fair baseline."""

    fraction_slowed: float
    mean_slowdown_of_slowed: float
    max_slowdown: float


def slowdown_summary(
    fair_jcts: Mapping[int, float],
    other_jcts: Mapping[int, float],
    threshold: float = 0.0,
) -> SlowdownSummary:
    """Summarize slowdowns; a job counts as slowed when its fractional
    slowdown exceeds ``threshold`` (0 = any slowdown)."""
    slowdowns = job_slowdowns(fair_jcts, other_jcts)
    if not slowdowns:
        return SlowdownSummary(0.0, 0.0, 0.0)
    values = np.array(list(slowdowns.values()))
    slowed = values[values > threshold]
    return SlowdownSummary(
        fraction_slowed=float(len(slowed) / len(values)),
        mean_slowdown_of_slowed=float(slowed.mean()) if len(slowed) else 0.0,
        max_slowdown=float(values.max()) if len(values) else 0.0,
    )


def relative_integral_unfairness_summary(
    unfairness_integral: Mapping[int, float],
    job_runtimes: Mapping[int, float],
) -> Dict[str, float]:
    """Summary of the paper's relative integral unfairness metric.

    For each job, RIU = (1/runtime) * integral over the job's lifetime of
    (a(t) - f(t)) / f(t) dt, where a is the allocation actually received
    and f the purported fair allocation.  Jobs below zero were treated
    worse than fair.  The paper reports: few jobs negative (~7%), small
    average magnitude (~5%).
    """
    rius: List[float] = []
    for job_id, integral in unfairness_integral.items():
        runtime = job_runtimes.get(job_id, 0.0)
        if runtime > 0:
            rius.append(integral / runtime)
    if not rius:
        return {
            "fraction_negative": 0.0,
            "mean_negative_magnitude": 0.0,
            "mean_riu": 0.0,
        }
    arr = np.array(rius)
    negative = arr[arr < 0]
    return {
        "fraction_negative": float(len(negative) / len(arr)),
        "mean_negative_magnitude": (
            float(-negative.mean()) if len(negative) else 0.0
        ),
        "mean_riu": float(arr.mean()),
    }
