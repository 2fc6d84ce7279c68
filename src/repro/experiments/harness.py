"""Run (workload, cluster, scheduler) combinations and compare them.

Each run materializes a *fresh* cluster and fresh jobs from the same
trace records (job and task objects are stateful), so comparisons across
schedulers are apples-to-apples.  Completion times are keyed by job
*name* — stable across materializations — for the per-job CDFs of
Figures 4a and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.estimation.estimator import DemandEstimator
from repro.estimation.tracker import ResourceTracker
from repro.metrics.collector import MetricsCollector
from repro.schedulers.base import Scheduler
from repro.sim.engine import Engine, EngineConfig
from repro.workload.job import Job
from repro.workload.trace import TraceJob, materialize_trace

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "assemble_run",
    "run_trace",
    "run_comparison",
]


@dataclass
class ExperimentConfig:
    """Everything needed to repeat a run except the scheduler.

    ``seed`` is the run's one seed: it lays out the cluster, jitters the
    materialized jobs and seeds the engine.  ``engine_config`` carries
    the engine's other settings; its own ``seed`` is replaced by
    ``seed``.
    """

    num_machines: int = 100
    seed: int = 0
    use_tracker: bool = False
    estimator_factory: Optional[Callable[[], DemandEstimator]] = None
    engine_config: Optional[EngineConfig] = None

    def make_cluster(self) -> Cluster:
        return Cluster(self.num_machines, seed=self.seed)

    def make_engine_config(self) -> EngineConfig:
        if self.engine_config is None:
            return EngineConfig(seed=self.seed)
        return replace(self.engine_config, seed=self.seed)


@dataclass
class RunResult:
    """Outcome of one run."""

    scheduler_name: str
    collector: MetricsCollector
    jobs: List[Job]
    #: the engine's placement log (``repro run --audit`` checks it)
    placement_log: List[tuple]
    #: wall-clock seconds spent inside ``Engine.run``
    wall_seconds: float = 0.0

    @property
    def num_placements(self) -> int:
        return len(self.placement_log)

    @property
    def mean_jct(self) -> float:
        return self.collector.mean_jct()

    @property
    def makespan(self) -> float:
        return self.collector.makespan()

    def completion_by_name(self) -> Dict[str, float]:
        """Job-name keyed completion times (stable across runs)."""
        out = {}
        for job in self.jobs:
            if job.completion_time is not None:
                out[job.name] = job.completion_time
        return out

    def summary(self) -> Dict[str, float]:
        return dict(self.collector.summary())


def assemble_run(
    trace: Sequence[TraceJob],
    scheduler: Scheduler,
    config: ExperimentConfig,
    stream: bool = False,
    **observers,
) -> Tuple[Engine, List[Job]]:
    """Build one run: cluster → jobs → tracker → estimator → engine.

    Every run in ``src/`` is assembled here.  The jobs are materialized
    on a fresh cluster from the trace records; a ``stream`` engine
    starts empty, and its caller delivers the returned jobs (the
    ``repro serve`` daemon).  ``observers`` (``profiler``,
    ``decision_trace``, ``metrics``) go to the :class:`Engine` as they
    are.
    """
    cluster = config.make_cluster()
    jobs = materialize_trace(trace, cluster, seed=config.seed)
    tracker = ResourceTracker(cluster) if config.use_tracker else None
    estimator = (
        config.estimator_factory()
        if config.estimator_factory is not None
        else None
    )
    engine = Engine(
        cluster,
        scheduler,
        [] if stream else jobs,
        estimator=estimator,
        tracker=tracker,
        config=config.make_engine_config(),
        **observers,
    )
    return engine, jobs


def run_trace(
    trace: Sequence[TraceJob],
    scheduler: Scheduler,
    config: Optional[ExperimentConfig] = None,
) -> RunResult:
    """Materialize the trace on a fresh cluster and run one scheduler."""
    cfg = config if config is not None else ExperimentConfig()
    engine, jobs = assemble_run(trace, scheduler, cfg)
    start = perf_counter()
    collector = engine.run()
    wall = perf_counter() - start
    return RunResult(
        scheduler_name=scheduler.name,
        collector=collector,
        jobs=jobs,
        placement_log=engine.placement_log,
        wall_seconds=wall,
    )


def run_comparison(
    trace: Sequence[TraceJob],
    scheduler_factories: Dict[str, Callable[[], Scheduler]],
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, RunResult]:
    """Run the same trace under several schedulers; returns per-name results.

    Each (name, factory) cell becomes a :class:`repro.exec.RunSpec`, run
    serially in this process.  Results are keyed and ordered by
    factory-dict insertion order.  If any cell fails, every other cell
    still runs and a single :class:`repro.exec.ExecutionError` naming
    the failed rows is raised at the end; callers that want a process
    pool or per-row failure reporting build specs and call
    :func:`repro.exec.run_specs` directly.
    """
    from repro.exec import RunSpec, raise_on_failure, run_specs

    cfg = config if config is not None else ExperimentConfig()
    specs = [
        RunSpec(trace=tuple(trace), scheduler=factory, config=cfg, label=name)
        for name, factory in scheduler_factories.items()
    ]
    outcomes = run_specs(specs)
    raise_on_failure(outcomes)
    return {outcome.label: outcome.result for outcome in outcomes}
