"""Multi-seed replication: mean and spread across repeated runs.

Single-run comparisons are noisy at simulator scale; the paper itself
repeats each deployment experiment five times.  ``replicate`` reruns a
(workload-generator, scheduler set) combination across seeds and
aggregates the metrics, so claims can be made with error bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.harness import ExperimentConfig
from repro.metrics.comparison import improvement_percent

__all__ = ["MetricSummary", "ReplicatedComparison", "replicate"]


@dataclass(frozen=True)
class MetricSummary:
    """Mean and spread of one metric across seeds."""

    mean: float
    std: float
    values: tuple

    @classmethod
    def of(cls, values: Sequence[float]) -> "MetricSummary":
        arr = np.asarray(list(values), dtype=float)
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            values=tuple(float(v) for v in arr),
        )

    def __str__(self) -> str:
        return f"{self.mean:.1f} ± {self.std:.1f}"


@dataclass
class ReplicatedComparison:
    """Aggregated results of a multi-seed comparison."""

    seeds: tuple
    mean_jct: Dict[str, MetricSummary]
    makespan: Dict[str, MetricSummary]

    def improvement(
        self, baseline: str, treatment: str, metric: str = "mean_jct"
    ) -> MetricSummary:
        """Per-seed percentage improvements of treatment over baseline."""
        base = getattr(self, metric)[baseline].values
        treat = getattr(self, metric)[treatment].values
        return MetricSummary.of(
            [improvement_percent(b, t) for b, t in zip(base, treat)]
        )


def replicate(
    make_trace: Callable[[int], Sequence],
    scheduler_factories: Dict[str, Callable],
    seeds: Sequence[int],
    num_machines: int = 20,
    workers: Optional[int] = None,
    backend=None,
    **config_kw,
) -> ReplicatedComparison:
    """Run the comparison once per seed and aggregate.

    ``make_trace(seed)`` builds the workload for a seed (regenerate it
    per seed so both the workload sample and the simulation randomness
    vary, as in repeated real experiments).

    The whole seeds × schedulers grid is independent cells, executed on
    an execution backend (``workers`` > 1 selects the process pool); results are aggregated in seed order and are
    bit-identical across backends.
    """
    from repro.exec import RunSpec, get_backend, raise_on_failure, run_specs

    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    names = list(scheduler_factories)
    specs = []
    for seed in seeds:
        trace = tuple(make_trace(seed))
        config = ExperimentConfig(num_machines=num_machines, seed=seed,
                                  **config_kw)
        specs.extend(
            RunSpec(trace=trace, scheduler=factory, config=config,
                    label=f"{name}@seed={seed}")
            for name, factory in scheduler_factories.items()
        )
    outcomes = run_specs(
        specs, backend if backend is not None else get_backend(workers)
    )
    raise_on_failure(outcomes)
    per_seed: List[Dict[str, object]] = [
        {
            name: outcomes[i * len(names) + j].result
            for j, name in enumerate(names)
        }
        for i in range(len(seeds))
    ]
    return ReplicatedComparison(
        seeds=tuple(seeds),
        mean_jct={
            name: MetricSummary.of(
                [results[name].mean_jct for results in per_seed]
            )
            for name in names
        },
        makespan={
            name: MetricSummary.of(
                [results[name].makespan for results in per_seed]
            )
            for name in names
        },
    )
