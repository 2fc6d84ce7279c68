"""Task demand estimators (Section 4.1).

The scheduler never sees ground truth; it schedules against an estimate.
Four estimators are provided:

- :class:`OracleEstimator` — returns true demands (the §3 assumption, and
  the default for controlled experiments);
- :class:`NoisyEstimator` — true demands with multiplicative noise, for
  robustness studies;
- :class:`ProfilingEstimator` — the paper's pipeline: statistics from prior
  runs of the same recurring job, then from completed peer tasks of the
  same stage, then a deliberate *over*-estimate (over-estimation is better
  than under-estimation; the tracker reclaims the slack).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.estimation.history import TemplateHistory
from repro.resources import ResourceVector
from repro.workload.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry

__all__ = [
    "DemandEstimator",
    "OracleEstimator",
    "NoisyEstimator",
    "ProfilingEstimator",
]


class DemandEstimator(abc.ABC):
    """Estimates a task's peak demand profile (placement-independent)."""

    #: True when repeated :meth:`estimate` calls for the same task always
    #: return the same vector for the task's lifetime.  Schedulers that
    #: cache demand vectors (the batched Tetris packing path) keep their
    #: caches across task completions only for stable estimators;
    #: learning estimators (peer means, template history) force a full
    #: cache invalidation whenever a task finishes.
    stable_estimates: bool = True

    @abc.abstractmethod
    def estimate(self, task: Task) -> ResourceVector:
        """Estimated peak demand vector for ``task``."""

    def record_completion(self, task: Task) -> None:
        """Feed back a finished task's observed demands (optional)."""


class OracleEstimator(DemandEstimator):
    """Perfect knowledge of task demands."""

    def estimate(self, task: Task) -> ResourceVector:
        return task.demands

    def __repr__(self) -> str:
        return "OracleEstimator()"


class NoisyEstimator(DemandEstimator):
    """True demands scaled by lognormal multiplicative noise.

    ``sigma`` is the noise scale in log space; the same draw is reused per
    task so repeated estimates are consistent.
    """

    def __init__(self, sigma: float = 0.2, seed: int = 0):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma
        self.rng = np.random.default_rng(seed)
        self._factor_by_task: Dict[int, float] = {}

    def estimate(self, task: Task) -> ResourceVector:
        factor = self._factor_by_task.get(task.task_id)
        if factor is None:
            factor = float(self.rng.lognormal(mean=0.0, sigma=self.sigma))
            self._factor_by_task[task.task_id] = factor
        return task.demands * factor

    def __repr__(self) -> str:
        return f"NoisyEstimator(sigma={self.sigma})"


class ProfilingEstimator(DemandEstimator):
    """The paper's estimation pipeline.

    Priority order for a task of stage S in a job with template T:

    1. history of (T, S) from previous *runs* (recurring jobs);
    2. completed peers of the same stage in the *current* run (tasks of a
       stage do the same computation on different partitions);
    3. a conservative over-estimate: ``overestimate_factor`` times a
       reference vector (the stage's true mean is unknown, so we inflate a
       configurable default guess).
    """

    #: estimates move as peers finish and history accrues
    stable_estimates = False

    def __init__(
        self,
        history: Optional[TemplateHistory] = None,
        default_guess: Optional[ResourceVector] = None,
        overestimate_factor: float = 1.5,
        min_peer_samples: int = 3,
    ):
        if overestimate_factor < 1.0:
            raise ValueError("overestimate_factor must be >= 1")
        self.history = history
        self.default_guess = default_guess
        self.overestimate_factor = overestimate_factor
        self.min_peer_samples = min_peer_samples
        self._peer_stats: Dict[int, TemplateHistory] = {}
        #: estimates served by pipeline stage
        self.estimates: Dict[str, int] = {
            "history": 0, "peers": 0, "fallback": 0,
        }

    def declare_metrics(self, registry: "Registry") -> None:
        estimates = self.estimates
        registry.counter(
            "repro_estimator_estimates_total",
            "Demand estimates served, by pipeline stage "
            "(history, peers, or the over-estimation fallback)",
            # a stage that never served an estimate has no sample
            lambda: {k: n for k, n in estimates.items() if n},
            labelnames=("source",),
        )

    def _peer_mean(self, task: Task) -> Optional[ResourceVector]:
        """Mean demands of already-finished peers of this stage."""
        stage = task.stage
        if stage is None:
            return None
        finished = [
            t for t in stage.tasks if t.state is TaskState.FINISHED
        ]
        if len(finished) < self.min_peer_samples:
            return None
        total = ResourceVector.zeros_like(finished[0].demands)
        for t in finished:
            total.add_inplace(t.demands)
        return total * (1.0 / len(finished))

    def estimate(self, task: Task) -> ResourceVector:
        template = getattr(task.job, "template", None)
        stage_name = getattr(task.stage, "name", None)
        if (
            self.history is not None
            and template is not None
            and stage_name is not None
        ):
            mean = self.history.mean(template, stage_name)
            if mean is not None:
                self.estimates["history"] += 1
                return mean
        peer = self._peer_mean(task)
        if peer is not None:
            self.estimates["peers"] += 1
            return peer
        self.estimates["fallback"] += 1
        if self.default_guess is not None:
            return self.default_guess * self.overestimate_factor
        return task.demands * self.overestimate_factor

    def record_completion(self, task: Task) -> None:
        template = getattr(task.job, "template", None)
        stage_name = getattr(task.stage, "name", None)
        if (
            self.history is not None
            and template is not None
            and stage_name is not None
        ):
            self.history.observe(template, stage_name, task.demands)

    def __repr__(self) -> str:
        return (
            f"ProfilingEstimator(overestimate_factor="
            f"{self.overestimate_factor})"
        )
