"""The serializable run layer: one :class:`RunSpec` per grid cell.

Every evaluation in the paper is a grid of *independent* runs —
schedulers × knobs × seeds.  A :class:`RunSpec` is the frozen, picklable
description of one cell: trace records (not materialized jobs — jobs
are stateful), cluster shape and configs, and the scheduler as a
registry *name plus knob dict* so the spec crosses process boundaries
without dragging object graphs along.  :func:`execute` is the single
entry point that materializes fresh jobs and a fresh cluster exactly as
``harness.run_trace`` does and returns its
:class:`~repro.experiments.harness.RunResult`.

:func:`run_specs` maps a spec list over an execution backend
(:mod:`repro.exec.backends`) and returns :class:`RunOutcome` rows in
spec order: the successful cells carry their ``RunResult``, the
failed cells carry the error and the worker's traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exec.backends import (
    ExecutionError,
    ProgressCallback,
    SerialBackend,
    TaskOutcome,
)
from repro.experiments.harness import ExperimentConfig, RunResult, run_trace
from repro.schedulers.base import Scheduler
from repro.workload.trace import TraceJob

__all__ = [
    "RunSpec",
    "RunOutcome",
    "execute",
    "run_specs",
    "raise_on_failure",
]


@dataclass(frozen=True)
class RunSpec:
    """A frozen, picklable description of one run.

    ``scheduler`` is preferably a registry name (see
    :mod:`repro.schedulers.registry`) with ``knobs`` selecting its
    config; a picklable zero-argument factory (a scheduler class, a
    module-level function) is also accepted so legacy factory-dict call
    sites ride the same path.  ``config`` is the usual
    :class:`ExperimentConfig`; for process backends it must be picklable
    (in particular ``estimator_factory`` must not be a lambda).
    """

    trace: Tuple[TraceJob, ...]
    scheduler: Union[str, Callable[[], Scheduler]]
    knobs: Optional[Mapping[str, object]] = None
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "trace", tuple(self.trace))
        if self.knobs is not None:
            # defensive copy; treat as immutable like the rest of the spec
            object.__setattr__(self, "knobs", dict(self.knobs))
            if not isinstance(self.scheduler, str):
                raise ValueError(
                    "knobs require a registry-name scheduler; factories "
                    "carry their own configuration"
                )

    @property
    def name(self) -> str:
        """Row label: explicit label, else the scheduler name."""
        if self.label is not None:
            return self.label
        if isinstance(self.scheduler, str):
            return self.scheduler
        return getattr(self.scheduler, "__name__", "scheduler")

    def build_scheduler(self) -> Scheduler:
        if isinstance(self.scheduler, str):
            from repro.schedulers.registry import build_scheduler

            return build_scheduler(self.scheduler, self.knobs)
        return self.scheduler()


@dataclass
class RunOutcome:
    """One grid cell's result row: a ``RunResult`` or a reported failure."""

    index: int
    label: str
    ok: bool
    result: Optional[RunResult] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1
    #: wall-clock seconds of the (last) execute() call, measured in the
    #: worker — comparable across backends, unlike queueing delay
    wall_seconds: float = 0.0


def execute(spec: RunSpec) -> RunResult:
    """Run one spec to completion in this process.

    The single entry point the backends fan out: fresh cluster, fresh
    jobs materialized from the spec's trace records, one engine run.
    """
    return run_trace(spec.trace, spec.build_scheduler(), spec.config)


def _to_run_outcome(outcome: TaskOutcome, spec: RunSpec) -> RunOutcome:
    return RunOutcome(
        index=outcome.index,
        label=spec.name,
        ok=outcome.ok,
        result=outcome.value if outcome.ok else None,
        error=outcome.error,
        traceback=outcome.traceback,
        attempts=outcome.attempts,
        wall_seconds=outcome.wall_seconds,
    )


def run_specs(
    specs: Sequence[RunSpec],
    backend=None,
    progress: Optional[ProgressCallback] = None,
) -> List[RunOutcome]:
    """Execute every spec on ``backend``; outcome rows in spec order."""
    specs = list(specs)
    if backend is None:
        backend = SerialBackend()
    outcomes = backend.map(execute, specs, progress=progress)
    return [
        _to_run_outcome(outcome, specs[outcome.index]) for outcome in outcomes
    ]


def raise_on_failure(outcomes: Sequence[RunOutcome]) -> None:
    """Raise :class:`ExecutionError` naming every failed row (callers
    that want a plain result mapping rather than per-row reporting)."""
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        return
    lines = [f"{len(failed)} of {len(outcomes)} runs failed:"]
    for outcome in failed:
        lines.append(
            f"  [{outcome.index}] {outcome.label}: {outcome.error} "
            f"(attempts={outcome.attempts})"
        )
    first_tb = next((o.traceback for o in failed if o.traceback), None)
    if first_tb:
        lines.append("first worker traceback:")
        lines.append(first_tb.rstrip())
    raise ExecutionError("\n".join(lines))
