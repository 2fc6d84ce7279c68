"""Run (workload, cluster, scheduler) combinations and compare them.

Each run materializes a *fresh* cluster and fresh jobs from the same
trace records (job and task objects are stateful), so comparisons across
schedulers are apples-to-apples.  Completion times are keyed by job
*name* — stable across materializations — for the per-job CDFs of
Figures 4a and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.activity.ingestion import ClusterActivity
from repro.cluster.cluster import Cluster
from repro.estimation.estimator import DemandEstimator
from repro.estimation.tracker import ResourceTracker, TrackerConfig
from repro.metrics.collector import MetricsCollector
from repro.resources import ResourceVector
from repro.schedulers.base import Scheduler
from repro.sim.engine import Engine, EngineConfig
from repro.sim.fluid import FluidConfig
from repro.workload.job import Job
from repro.workload.trace import TraceJob, materialize_trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry
    from repro.profiling import Profiler

__all__ = ["ExperimentConfig", "RunResult", "run_trace", "run_comparison"]


@dataclass
class ExperimentConfig:
    """Everything needed to repeat a run except the scheduler."""

    num_machines: int = 100
    machine_capacity: Optional[ResourceVector] = None
    machines_per_rack: int = 16
    seed: int = 0
    use_tracker: bool = False
    tracker_config: Optional[TrackerConfig] = None
    estimator_factory: Optional[Callable[[], DemandEstimator]] = None
    fluid_config: Optional[FluidConfig] = None
    engine_config: Optional[EngineConfig] = None
    track_fairness: bool = False
    track_machine_usage: bool = False

    def make_cluster(self) -> Cluster:
        return Cluster(
            self.num_machines,
            machine_capacity=self.machine_capacity,
            machines_per_rack=self.machines_per_rack,
            seed=self.seed,
        )

    def make_engine_config(self) -> EngineConfig:
        if self.engine_config is not None:
            return self.engine_config
        return EngineConfig(
            seed=self.seed,
            track_fairness=self.track_fairness,
            track_machine_usage=self.track_machine_usage,
        )


@dataclass
class RunResult:
    """Outcome of one run."""

    scheduler_name: str
    collector: MetricsCollector
    jobs: List[Job]
    activities: List[ClusterActivity] = field(default_factory=list)
    #: wall-clock seconds spent inside ``Engine.run`` and how many
    #: placements it made (``repro run --json`` reports both)
    wall_seconds: float = 0.0
    num_placements: int = 0

    @property
    def placements_per_sec(self) -> float:
        """Scheduler throughput (placements per wall-clock second)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_placements / self.wall_seconds

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

    def unfairness_by_name(self) -> Dict[str, float]:
        """Job-name keyed relative integral unfairness values."""
        out = {}
        by_id = {job.job_id: job for job in self.jobs}
        for job_id, integral in self.collector.unfairness_integral.items():
            job = by_id.get(job_id)
            if job is None or job.completion_time in (None, 0):
                continue
            out[job.name] = integral / job.completion_time
        return out

    def summary(self) -> Dict[str, float]:
        return dict(self.collector.summary())


def run_trace(
    trace: Sequence[TraceJob],
    scheduler: Scheduler,
    config: Optional[ExperimentConfig] = None,
    activities: Iterable[ClusterActivity] = (),
    profiler: Optional["Profiler"] = None,
    metrics: Optional["Registry"] = None,
) -> RunResult:
    """Materialize the trace on a fresh cluster and run one scheduler.

    ``profiler`` and ``metrics`` are handed straight to the
    :class:`Engine` (same opt-in ``Optional[...]`` contract), so a caller
    can collect phase timings and counters from an otherwise unmodified
    run.
    """
    cfg = config if config is not None else ExperimentConfig()
    cluster = cfg.make_cluster()
    jobs = materialize_trace(trace, cluster, seed=cfg.seed)
    tracker = None
    if cfg.use_tracker:
        tracker = ResourceTracker(cluster, cfg.tracker_config)
    estimator = (
        cfg.estimator_factory() if cfg.estimator_factory is not None else None
    )
    engine = Engine(
        cluster,
        scheduler,
        jobs,
        activities=activities,
        estimator=estimator,
        tracker=tracker,
        fluid_config=cfg.fluid_config,
        config=cfg.make_engine_config(),
        profiler=profiler,
        metrics=metrics,
    )
    start = perf_counter()
    collector = engine.run()
    wall = perf_counter() - start
    return RunResult(
        scheduler_name=scheduler.name,
        collector=collector,
        jobs=jobs,
        activities=list(activities),
        wall_seconds=wall,
        num_placements=len(engine.placement_log),
    )


def run_comparison(
    trace: Sequence[TraceJob],
    scheduler_factories: Dict[str, Callable[[], Scheduler]],
    config: Optional[ExperimentConfig] = None,
    workers: Optional[int] = None,
    backend=None,
    progress=None,
) -> Dict[str, RunResult]:
    """Run the same trace under several schedulers; returns per-name results.

    Each (name, factory) cell becomes a :class:`repro.exec.RunSpec` and
    the grid executes on an execution backend: the default resolves from
    ``workers`` (falling back to the ``REPRO_WORKERS`` env var, then
    serial), or pass ``backend`` explicitly.  Results are keyed and
    ordered by factory-dict insertion order regardless of which run
    finished first, and are bit-identical across backends.  If any cell
    fails, every other cell still runs and a single
    :class:`repro.exec.ExecutionError` naming the failed rows is raised
    at the end; callers that want per-row failure reporting should build
    specs and call :func:`repro.exec.run_specs` directly.
    """
    from repro.exec import RunSpec, get_backend, raise_on_failure, run_specs

    cfg = config if config is not None else ExperimentConfig()
    specs = [
        RunSpec(trace=tuple(trace), scheduler=factory, config=cfg, label=name)
        for name, factory in scheduler_factories.items()
    ]
    outcomes = run_specs(
        specs,
        backend if backend is not None else get_backend(workers),
        progress=progress,
    )
    raise_on_failure(outcomes)
    return {outcome.label: outcome.result for outcome in outcomes}
